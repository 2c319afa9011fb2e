(* Fleet determinism and isolation.

   The contract from DESIGN.md §15: a batch run on an N-worker fleet is
   observationally identical to the same batch run sequentially —
   byte-identical per-session traces, identical warnings, verdicts and
   error outcomes, in submission order — no matter how the
   work-stealing interleaved the sessions, and no matter which worker
   ran which session.  One crashing task or failing session must never
   take down its worker, let alone the pool. *)

let golden_scenarios =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab"; "pma";
    "superforker"; "ls"; "column" ]

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

let check_same_trace msg ~expected ~actual =
  match Hth.Golden.first_divergence ~expected ~actual with
  | None -> ()
  | Some d -> Alcotest.failf "%s@.%s" msg (Hth.Golden.report ~name:msg d)

(* ------------------------------------------------------------------ *)
(* deque unit behavior                                                 *)

let deque_case =
  Alcotest.test_case "deque: owner LIFO, thief FIFO, grow" `Quick (fun () ->
      let d = Fleet.Deque.create ~capacity:2 () in
      for i = 0 to 99 do
        Fleet.Deque.push d i
      done;
      (* growth happened (capacity hint was 2) and nothing was lost *)
      Alcotest.(check int) "size" 100 (Fleet.Deque.size d);
      Alcotest.(check (option int)) "thief takes the oldest" (Some 0)
        (Fleet.Deque.steal d);
      Alcotest.(check (option int)) "owner takes the newest" (Some 99)
        (Fleet.Deque.pop d);
      let rest = ref [] in
      let rec drain () =
        match Fleet.Deque.pop d with
        | Some v ->
          rest := v :: !rest;
          drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check int) "drained" 98 (List.length !rest);
      Alcotest.(check (option int)) "empty pop" None (Fleet.Deque.pop d);
      Alcotest.(check (option int)) "empty steal" None (Fleet.Deque.steal d))

let deque_race_case =
  Alcotest.test_case "deque: concurrent thieves lose nothing" `Quick
    (fun () ->
      let d = Fleet.Deque.create () in
      let n = 10_000 in
      let stolen = Atomic.make 0 and sum = Atomic.make 0 in
      let thief () =
        let rec go () =
          match Fleet.Deque.steal d with
          | Some v ->
            Atomic.incr stolen;
            ignore (Atomic.fetch_and_add sum v);
            go ()
          | None -> if Atomic.get stolen < n then (Domain.cpu_relax (); go ())
        in
        go ()
      in
      let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
      for i = 1 to n do
        Fleet.Deque.push d i
      done;
      List.iter Domain.join thieves;
      (* every pushed task was claimed exactly once *)
      Alcotest.(check int) "claims" n (Atomic.get stolen);
      Alcotest.(check int) "sum" (n * (n + 1) / 2) (Atomic.get sum))

(* ------------------------------------------------------------------ *)
(* pool scheduling and crash isolation                                 *)

let pool_case =
  Alcotest.test_case "pool: completes all tasks, survives crashes" `Quick
    (fun () ->
      let p = Fleet.Pool.create ~jobs:4 () in
      let hits = Atomic.make 0 in
      for i = 0 to 199 do
        Fleet.Pool.submit p (fun _w _e ->
            if i mod 10 = 3 then failwith "injected task crash";
            Atomic.incr hits)
      done;
      Fleet.Pool.drain p;
      (* the pool is still alive after 20 crashing tasks *)
      Fleet.Pool.submit p (fun _w _e -> Atomic.incr hits);
      Fleet.Pool.shutdown p;
      let s = Fleet.Pool.stats p in
      Alcotest.(check int) "non-crashing tasks ran" 181 (Atomic.get hits);
      Alcotest.(check int) "every task executed" 201 s.Fleet.Pool.executed;
      Alcotest.(check int) "crashes counted" 20 s.Fleet.Pool.exceptions;
      Alcotest.(check int) "submissions counted" 201 s.Fleet.Pool.injected;
      Alcotest.(check bool) "submit after shutdown rejected" true
        (try
           Fleet.Pool.submit p (fun _ _ -> ());
           false
         with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* executor: fleet runs are byte-identical to sequential runs          *)

let engine_of () = Hth.Engine.create ()

let fleet_outcomes ~jobs ?fault names =
  let ex = Fleet.Executor.create ~jobs [ "default", engine_of () ] in
  let outs =
    Fleet.Executor.run_all ex
      (List.map
         (fun n -> Fleet.Executor.job ?fault ~trace:true (find n).sc_setup)
         names)
  in
  Fleet.Executor.shutdown ex;
  outs

let capture_cold (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  let r =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Hth.Session.run sc.sc_setup)
  in
  Buffer.contents buf, r

let identity_case =
  Alcotest.test_case "4 workers vs cold sequential sessions" `Quick
    (fun () ->
      let outs = fleet_outcomes ~jobs:4 golden_scenarios in
      List.iteri
        (fun i (o : Fleet.Executor.outcome) ->
          let name = List.nth golden_scenarios i in
          let cold_trace, cold = capture_cold (find name) in
          Alcotest.(check int) "sequence order" i o.o_seq;
          match o.o_result with
          | Error e ->
            Alcotest.failf "%s: fleet error: %s" name (Hth.Error.to_string e)
          | Ok r ->
            check_same_trace (name ^ ": fleet trace vs cold trace")
              ~expected:cold_trace
              ~actual:(Option.value ~default:"" o.o_trace);
            Alcotest.(check (list string))
              (name ^ ": warnings")
              (List.map Secpert.Warning.to_string cold.warnings)
              (List.map Secpert.Warning.to_string r.warnings);
            Alcotest.(check bool) (name ^ ": verdict") true
              (cold.max_severity = r.max_severity))
        outs)

(* corpus x 4 domains x 5 seeds: the faulted fleet must match the
   one-worker fleet byte for byte *)
let seeds_case =
  Alcotest.test_case "4 workers vs 1 worker across fault seeds" `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let fault = Osim.Fault.seeded seed in
          let seq = fleet_outcomes ~jobs:1 ~fault golden_scenarios in
          let par = fleet_outcomes ~jobs:4 ~fault golden_scenarios in
          List.iter2
            (fun (a : Fleet.Executor.outcome) (b : Fleet.Executor.outcome) ->
              let name = List.nth golden_scenarios a.o_seq in
              (match a.o_result, b.o_result with
               | Ok _, Ok _ | Error _, Error _ -> ()
               | _ ->
                 Alcotest.failf "%s seed %d: outcome class diverged" name
                   seed);
              check_same_trace
                (Printf.sprintf "%s seed %d: jobs=4 vs jobs=1" name seed)
                ~expected:(Option.value ~default:"" a.o_trace)
                ~actual:(Option.value ~default:"" b.o_trace))
            seq par)
        [ 1; 2; 3; 4; 5 ])

let unknown_engine_case =
  Alcotest.test_case "unknown engine name is an ordered outcome" `Quick
    (fun () ->
      let ex = Fleet.Executor.create ~jobs:2 [ "default", engine_of () ] in
      let setup = (find "pma").sc_setup in
      let outs =
        Fleet.Executor.run_all ex
          [ Fleet.Executor.job setup;
            Fleet.Executor.job ~engine:"nonesuch" setup;
            Fleet.Executor.job setup ]
      in
      Fleet.Executor.shutdown ex;
      (match outs with
       | [ a; b; c ] ->
         Alcotest.(check bool) "first ok" true (Result.is_ok a.o_result);
         (match b.o_result with
          | Error (Hth.Error.Policy_error msg) ->
            Alcotest.(check bool) "names the engine" true
              (Astring.String.is_infix ~affix:"nonesuch" msg)
          | _ -> Alcotest.fail "expected Policy_error for unknown engine");
         Alcotest.(check bool) "third ok" true (Result.is_ok c.o_result)
       | _ -> Alcotest.fail "expected three outcomes"))

(* Session failures (here: a fault plan breaking the loader) come back
   as the same typed errors the sequential engine reports, at the right
   sequence positions, without disturbing neighbouring sessions. *)
let fault_isolation_case =
  Alcotest.test_case "failing sessions match sequential errors" `Quick
    (fun () ->
      let plan =
        match Osim.Fault.parse "*=eio" with
        | Ok p -> p
        | Error e -> Alcotest.failf "bad plan: %s" e
      in
      let names = [ "pma"; "grabem"; "ls" ] in
      let eng = engine_of () in
      let seq_results =
        List.map
          (fun n -> Hth.Engine.run_outcome eng ~fault:plan (find n).sc_setup)
          names
      in
      let ex = Fleet.Executor.create ~jobs:2 [ "default", engine_of () ] in
      let outs =
        Fleet.Executor.run_all ex
          (List.map
             (fun n -> Fleet.Executor.job ~fault:plan (find n).sc_setup)
             names)
      in
      Fleet.Executor.shutdown ex;
      List.iter2
        (fun seq (o : Fleet.Executor.outcome) ->
          match seq, o.o_result with
          | Ok a, Ok b ->
            Alcotest.(check bool) "same verdict" true
              (a.Hth.Session.max_severity = b.Hth.Session.max_severity)
          | Error a, Error b ->
            Alcotest.(check string) "same error" (Hth.Error.to_string a)
              (Hth.Error.to_string b)
          | _ -> Alcotest.fail "outcome class diverged from sequential")
        seq_results outs)

(* ------------------------------------------------------------------ *)
(* observability: worker shards fold back deterministically            *)

let absorb_case =
  Alcotest.test_case "worker counters absorbed into the main domain"
    `Quick (fun () ->
      let before = Obs.snapshot () in
      let n = List.length golden_scenarios in
      ignore (fleet_outcomes ~jobs:4 golden_scenarios);
      let diff = Obs.diff ~before ~after:(Obs.snapshot ()) in
      let get name =
        match List.assoc_opt name diff with Some v -> v | None -> 0
      in
      Alcotest.(check int) "fleet.tasks" n (get "fleet.tasks");
      Alcotest.(check int) "session outcomes" n (get "session.outcome.ok");
      (* per-session work done on worker domains is visible here *)
      Alcotest.(check bool) "instructions absorbed" true
        (get "vm.instructions" > 0);
      Alcotest.(check bool) "warnings absorbed" true
        (get "secpert.warnings" > 0);
      (* absorbing is deterministic: the same batch adds the same
         totals again *)
      let before2 = Obs.snapshot () in
      ignore (fleet_outcomes ~jobs:4 golden_scenarios);
      let diff2 = Obs.diff ~before:before2 ~after:(Obs.snapshot ()) in
      let stable = [ "vm.instructions"; "secpert.warnings"; "fleet.tasks" ] in
      List.iter
        (fun k ->
          Alcotest.(check int) (k ^ " repeatable")
            (match List.assoc_opt k diff with Some v -> v | None -> 0)
            (match List.assoc_opt k diff2 with Some v -> v | None -> 0))
        stable)

(* ------------------------------------------------------------------ *)
(* serve: ordered line protocol over the fleet                         *)

let resolver name =
  Option.map
    (fun (sc : Guest.Scenario.t) ->
      { Fleet.Serve.t_setup = sc.sc_setup;
        t_expected = Guest.Scenario.expected_label sc.sc_expected;
        t_matches = Guest.Scenario.matches sc.sc_expected })
    (Guest.Corpus.find name)

let serve_once lines =
  let pending = ref lines in
  let out = ref [] in
  let n =
    Fleet.Serve.run ~jobs:2 ~resolver
      ~input:(fun () ->
        match !pending with
        | [] -> None
        | l :: rest ->
          pending := rest;
          Some l)
      ~output:(fun line -> out := line :: !out)
      ()
  in
  n, List.rev !out

let field line k =
  match Forensics.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok fields -> List.assoc_opt k fields

let check_str line k expected =
  match field line k with
  | Some (Forensics.Jsonl.Str s) -> Alcotest.(check string) k expected s
  | _ -> Alcotest.failf "missing string field %S in %s" k line

let serve_case =
  Alcotest.test_case "serve: ordered responses, isolated bad lines"
    `Quick (fun () ->
      let script =
        [ {|{"scenario":"pma","id":"first"}|};
          {|{"scenario":"grabem","policy":"clips"}|};
          "definitely not json";
          {|{"scenario":"no-such-scenario"}|};
          {|{"scenario":"ls","seed":3}|} ]
      in
      let n, out = serve_once script in
      Alcotest.(check int) "requests answered" 5 n;
      Alcotest.(check int) "one response per request" 5 (List.length out);
      List.iteri
        (fun i line ->
          match field line "seq" with
          | Some (Forensics.Jsonl.Int s) ->
            Alcotest.(check int) "responses in input order" i s
          | _ -> Alcotest.failf "missing seq in %s" line)
        out;
      (match out with
       | [ a; b; c; d; e ] ->
         check_str a "status" "ok";
         check_str a "id" "first";
         check_str a "verdict"
           (let r = Guest.Scenario.run (find "pma") in
            Hth.Report.verdict_label (Hth.Report.verdict r));
         check_str b "status" "ok";
         check_str b "scenario" "grabem";
         check_str c "status" "bad_request";
         check_str d "status" "bad_request";
         check_str e "status" "ok";
         Alcotest.(check bool) "match flag present" true
           (field e "match" = Some (Forensics.Jsonl.Bool true))
       | _ -> Alcotest.fail "expected five responses");
      (* serving the same script again is byte-identical *)
      let _, out2 = serve_once script in
      Alcotest.(check (list string)) "deterministic service" out out2)

(* A 1 MiB line with no newline inside the cap is answered bad_request
   at its own seq without being held in memory, and the request after
   it is served normally. *)
let oversize_line_case =
  Alcotest.test_case "serve: oversize request line" `Quick (fun () ->
      let big = String.make (1 lsl 20) 'x' in
      let path = Filename.temp_file "hth_serve" ".in" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (big ^ "\n" ^ {|{"scenario":"pma"}|} ^ "\n"));
      In_channel.with_open_bin path (fun ic ->
          let a0 = Gc.allocated_bytes () in
          (match Fleet.Serve.read_line ic with
           | exception Fleet.Serve.Line_too_long -> ()
           | _ -> Alcotest.fail "oversize line not refused");
          Alcotest.(check bool) "oversize line not buffered" true
            (Gc.allocated_bytes () -. a0 < float (String.length big / 2));
          Alcotest.(check (option string)) "next line intact"
            (Some {|{"scenario":"pma"}|}) (Fleet.Serve.read_line ic);
          Alcotest.(check (option string)) "then end of input" None
            (Fleet.Serve.read_line ic));
      In_channel.with_open_bin path (fun ic ->
          let out = ref [] in
          let n =
            Fleet.Serve.run ~jobs:1 ~resolver
              ~input:(fun () -> Fleet.Serve.read_line ic)
              ~output:(fun line -> out := line :: !out)
              ()
          in
          Alcotest.(check int) "two requests answered" 2 n;
          match List.rev !out with
          | [ a; b ] ->
            Alcotest.(check bool) "seq 0" true
              (field a "seq" = Some (Forensics.Jsonl.Int 0));
            check_str a "status" "bad_request";
            Alcotest.(check bool) "seq 1" true
              (field b "seq" = Some (Forensics.Jsonl.Int 1));
            check_str b "status" "ok"
          | _ -> Alcotest.fail "expected two responses"))

let suite =
  [ deque_case; deque_race_case; pool_case; identity_case; seeds_case;
    unknown_engine_case; fault_isolation_case; absorb_case; serve_case;
    oversize_line_case ]
