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

let suite =
  [ gate "unmonitored" unmonitored;
    gate "tiered" (monitored (engine true));
    gate "tier off" (monitored (engine false)) ]
