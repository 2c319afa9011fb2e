(* Allocation gate for the guest instruction path.

   The interpreter, the tiered block dispatcher and the summary
   application are written to allocate nothing per instruction; the
   only minor-heap traffic left in a long session is per quantum, per
   syscall and per event.  This gate measures the marginal minor words
   per guest instruction of [Guest.Perf_workload] sessions: the
   difference between two iteration counts, so that everything a
   session allocates once (world, spawn, policy, report) cancels.  The
   count is deterministic — a function of the code path, not of timing.
   The bound sits well under one word per instruction: a single boxed
   value or closure on the step path costs 2-4 words per instruction
   and trips it. *)

let bound = 0.1

let iters_small = 100
let iters_large = 400

let setup iters =
  (Guest.Perf_workload.scenario ~iters).Guest.Scenario.sc_setup

let engine tier =
  Hth.Engine.create
    ~monitor_config:{ Harrier.Monitor.default_config with tier }
    ()

(* [(minor words, guest instructions)] of one session. *)
let measure run s =
  let w0 = Gc.minor_words () in
  let insns = run s in
  Gc.minor_words () -. w0, insns

let monitored eng s =
  match Hth.Engine.run_outcome eng s with
  | Ok r -> r.os_report.rep_ticks
  | Error e -> Alcotest.fail (Hth.Error.to_string e)

let unmonitored s = (Hth.Engine.run_unmonitored s).rep_ticks

let marginal run =
  let small = setup iters_small and large = setup iters_large in
  (* warm caches: image links, compiled-insn slots, pooled spaces *)
  ignore (run small);
  ignore (run large);
  let w_small, n_small = measure run small in
  let w_large, n_large = measure run large in
  (w_large -. w_small) /. float_of_int (n_large - n_small)

let gate name run =
  Alcotest.test_case
    (Printf.sprintf "%s: marginal minor words/insn <= %.1f" name bound)
    `Quick (fun () ->
      let per_insn = marginal run in
      if per_insn > bound then
        Alcotest.failf "%s allocates %.3f minor words per guest instruction"
          name per_insn)

(* Cold-path gates: words a session allocates directly in the major
   heap — blocks too big for the minor heap, such as an address-space
   buffer, a memory page or a taint arena.  Promotions are left out, so
   the count is a function of the code path alone.  Guest memory is
   paged, so a session pays for the pages it writes (4 KiB, 513 words
   each) instead of the 131,072 words of a flat 1 MiB address space,
   and a fork copies only its parent's written pages.

   Bounds, with the values measured when they were set (flat 1 MiB
   address space → paged):
   - single-use [ls] session: 65,536 words (172,551 → 42,505; most of
     what is left is the fresh taint space's 32,768-word union memo);
   - [superforker], words per fork (the whole session's words over its
     12 forks): 32,768 (153,647 → 12,764; most of it is the shadow
     memory each fork copies). *)

let ls_bound = 65_536.
let fork_bound = 32_768.

let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  let r = f () in
  let _, p1, m1 = Gc.counters () in
  r, m1 -. m0 -. (p1 -. p0)

let corpus_session name =
  match Guest.Corpus.find name with
  | None -> Alcotest.failf "unknown scenario %S" name
  | Some sc ->
    direct_major_words (fun () ->
        match Hth.Session.run_outcome sc.sc_setup with
        | Ok r -> r
        | Error e -> Alcotest.fail (Hth.Error.to_string e))

let cold_gates =
  [ Alcotest.test_case
      (Printf.sprintf "single-use ls session: major words <= %.0f" ls_bound)
      `Quick (fun () ->
        let _, words = corpus_session "ls" in
        if words > ls_bound then
          Alcotest.failf "a single-use ls session allocates %.0f major words"
            words);
    Alcotest.test_case
      (Printf.sprintf "superforker: major words per fork <= %.0f" fork_bound)
      `Quick (fun () ->
        let r, words = corpus_session "superforker" in
        let forks = r.os_report.rep_clones in
        if forks < 12 then Alcotest.failf "superforker forked %d times" forks;
        let per_fork = words /. float_of_int forks in
        if per_fork > fork_bound then
          Alcotest.failf "superforker allocates %.0f major words per fork"
            per_fork) ]

let suite =
  [ gate "unmonitored" unmonitored;
    gate "tiered" (monitored (engine true));
    gate "tier off" (monitored (engine false)) ]
  @ cold_gates
