(* The dormancy harness (DESIGN.md §16).

   Every dormant scenario family runs in three modes — never triggered,
   triggered, triggered-then-disarmed — and must produce a clean
   verdict, a warning with a trigger-citing evidence chain, and a clean
   verdict respectively.  The armed path must execute only in the
   triggered mode, and even then stay out of the hot-block profile
   (cold code is the point).  Verdicts and traces must be byte-stable
   across sequential vs fleet execution and across fault seeds, and a
   tick budget that expires before the trigger arrives must degrade
   the run, never flip the verdict. *)

let dormant_names =
  [ "sleeper daemon idle"; "sleeper daemon triggered";
    "sleeper daemon disarmed"; "logic bomb idle"; "logic bomb triggered";
    "logic bomb defused"; "worm pair idle"; "worm pair triggered";
    "worm pair recalled"; "update client idle"; "update client triggered";
    "update client rejected" ]

let triggered_names =
  [ "sleeper daemon triggered"; "logic bomb triggered";
    "worm pair triggered"; "update client triggered" ]

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

let contains s affix = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* three modes: clean / warning-with-evidence / clean                  *)

let modes_case =
  Alcotest.test_case "three modes: clean / warning / clean" `Quick
    (fun () ->
      List.iter
        (fun name ->
          let sc = find name in
          let r = Guest.Scenario.run sc in
          Alcotest.(check bool) (name ^ ": verdict") true
            (Guest.Scenario.matches sc.sc_expected
               (Hth.Report.verdict r));
          if List.mem name triggered_names then begin
            Alcotest.(check bool) (name ^ ": warned") true
              (r.distinct <> []);
            (* every triggered warning chain carries evidence *)
            List.iter
              (fun (w : Secpert.Warning.t) ->
                Alcotest.(check bool)
                  (name ^ ": warning has evidence") false
                  (Secpert.Evidence.is_empty w.evidence))
              r.distinct
          end
          else
            Alcotest.(check int) (name ^ ": silent") 0
              (List.length r.warnings))
        dormant_names)

(* The socket-triggered families must carry a check_trigger warning
   whose evidence origins cite the trigger input — the remote peer
   whose bytes steered control flow — in the "trigger" role. *)
let trigger_evidence_case =
  Alcotest.test_case "trigger warnings cite the trigger input" `Quick
    (fun () ->
      List.iter
        (fun (name, peer) ->
          let r = Guest.Scenario.run (find name) in
          match
            List.find_opt
              (fun (w : Secpert.Warning.t) ->
                String.equal w.rule "check_trigger")
              r.distinct
          with
          | None -> Alcotest.failf "%s: no check_trigger warning" name
          | Some w ->
            Alcotest.(check bool) (name ^ ": rare reinforcement") true
              w.rare;
            Alcotest.(check bool) (name ^ ": High") true
              (w.severity = Secpert.Severity.High);
            Alcotest.(check bool) (name ^ ": message cites the peer") true
              (contains w.message peer);
            let triggers =
              List.filter
                (fun (o : Secpert.Evidence.origin_ref) ->
                  String.equal o.og_role "trigger")
                w.evidence.origins
            in
            Alcotest.(check bool) (name ^ ": trigger origin present") true
              (List.exists
                 (fun (o : Secpert.Evidence.origin_ref) ->
                   String.equal o.og_type "SOCKET"
                   && contains o.og_name peer)
                 triggers);
            (* the chain resolves to concrete trace steps *)
            Alcotest.(check bool) (name ^ ": matched facts recorded") true
              (w.evidence.facts <> []))
        [ "sleeper daemon triggered", "attacker";
          "worm pair triggered", "victim.example";
          "update client triggered", "mirror.example" ];
      (* the logic bomb's trigger is the hosts database: its flow
         warning must cite the database file as the data's source *)
      let r = Guest.Scenario.run (find "logic bomb triggered") in
      match r.distinct with
      | [ w ] ->
        Alcotest.(check string) "logic bomb rule" "check_write" w.rule;
        Alcotest.(check bool) "cites the hosts db" true
          (List.exists
             (fun (o : Secpert.Evidence.origin_ref) ->
               String.equal o.og_role "source"
               && String.equal o.og_type "FILE"
               && String.equal o.og_name "/etc/hosts.db")
             w.evidence.origins)
      | ws ->
        Alcotest.failf "logic bomb: expected one distinct warning, got %d"
          (List.length ws))

(* ------------------------------------------------------------------ *)
(* the armed path is executed only when triggered, and stays cold      *)

let families =
  [ "sleeper daemon", Guest.Dormant.sleeper_payload;
    "logic bomb", Guest.Dormant.bomb_payload;
    "worm pair", Guest.Dormant.worm_payload;
    "update client", Guest.Dormant.update_payload ]

let mode_suffixes =
  [ "sleeper daemon", [ "idle"; "triggered"; "disarmed" ];
    "logic bomb", [ "idle"; "triggered"; "defused" ];
    "worm pair", [ "idle"; "triggered"; "recalled" ];
    "update client", [ "idle"; "triggered"; "rejected" ] ]

let armed_path_case =
  Alcotest.test_case "armed path in the profile only when triggered"
    `Quick (fun () ->
      List.iter
        (fun (family, payload) ->
          let lo, hi = payload () in
          Alcotest.(check bool) (family ^ ": payload range sane") true
            (lo > 0 && hi > lo);
          let in_range a = a >= lo && a < hi in
          List.iter
            (fun suffix ->
              let name = family ^ " " ^ suffix in
              let r = Guest.Scenario.run (find name) in
              let armed_events =
                List.filter
                  (fun e -> in_range (Harrier.Events.meta_of e).addr)
                  r.events
              in
              if String.equal suffix "triggered" then
                Alcotest.(check bool)
                  (name ^ ": armed path executed") true
                  (armed_events <> [])
              else
                Alcotest.(check int)
                  (name ^ ": armed path never entered") 0
                  (List.length armed_events);
              (* cold even when armed: the payload never makes the
                 hot-block profile *)
              Alcotest.(check bool)
                (name ^ ": armed path out of the hot blocks") false
                (List.exists (fun (_, addr, _) -> in_range addr)
                   r.hot_blocks))
            (List.assoc family mode_suffixes))
        families)

(* ------------------------------------------------------------------ *)
(* byte-stability: sequential vs fleet, across seeds                   *)

let check_same_trace msg ~expected ~actual =
  match Hth.Golden.first_divergence ~expected ~actual with
  | None -> ()
  | Some d -> Alcotest.failf "%s@.%s" msg (Hth.Golden.report ~name:msg d)

let fleet_outcomes ~jobs ?fault names =
  let ex =
    Fleet.Executor.create ~jobs [ "default", Hth.Engine.create () ]
  in
  let outs =
    Fleet.Executor.run_all ex
      (List.map
         (fun n -> Fleet.Executor.job ?fault ~trace:true (find n).sc_setup)
         names)
  in
  Fleet.Executor.shutdown ex;
  outs

let fleet_determinism_case =
  Alcotest.test_case "jobs 1 vs jobs 2, five fault seeds" `Quick (fun () ->
      (* unfaulted first: the dormancy machinery (net Delay wakes,
         scheduler fast-forward) must not depend on worker count *)
      let seq = fleet_outcomes ~jobs:1 dormant_names in
      let par = fleet_outcomes ~jobs:2 dormant_names in
      List.iter2
        (fun (a : Fleet.Executor.outcome) (b : Fleet.Executor.outcome) ->
          let name = List.nth dormant_names a.o_seq in
          check_same_trace (name ^ ": jobs=2 vs jobs=1")
            ~expected:(Option.value ~default:"" a.o_trace)
            ~actual:(Option.value ~default:"" b.o_trace))
        seq par;
      List.iter
        (fun seed ->
          let fault = Osim.Fault.seeded seed in
          let seq = fleet_outcomes ~jobs:1 ~fault dormant_names in
          let par = fleet_outcomes ~jobs:2 ~fault dormant_names in
          List.iter2
            (fun (a : Fleet.Executor.outcome)
                 (b : Fleet.Executor.outcome) ->
              let name = List.nth dormant_names a.o_seq in
              (match a.o_result, b.o_result with
               | Ok _, Ok _ | Error _, Error _ -> ()
               | _ ->
                 Alcotest.failf "%s seed %d: outcome class diverged" name
                   seed);
              check_same_trace
                (Printf.sprintf "%s seed %d: jobs=2 vs jobs=1" name seed)
                ~expected:(Option.value ~default:"" a.o_trace)
                ~actual:(Option.value ~default:"" b.o_trace))
            seq par)
        [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* no-partial-match arming (satellite: qcheck)                         *)

let run_sleeper_with bytes =
  let sc =
    Guest.Dormant.sleeper_daemon ~name:"sleeper probe"
      ~descr:"qcheck trigger-prefix probe" ~expected:Guest.Scenario.Benign
      ~script:
        Osim.Net.[ Delay Guest.Dormant.trigger_delay; Send bytes; Close ]
  in
  Guest.Scenario.run sc

let trigger_bytes_gen =
  (* near-miss-rich alphabet: the magic's own characters plus noise *)
  QCheck.string_gen_of_size (QCheck.Gen.int_bound 12)
    (QCheck.Gen.oneofl [ 'A'; 'R'; 'M'; '!'; 'D'; 'I'; 'S'; 'X' ])

let no_false_arming_prop =
  QCheck.Test.make ~count:40 ~name:"random prefixes never false-arm"
    trigger_bytes_gen (fun bytes ->
      QCheck.assume (not (contains bytes Guest.Dormant.magic_arm));
      let r = run_sleeper_with bytes in
      r.max_severity = None && r.warnings = [])

let automaton_case =
  Alcotest.test_case "byte automaton: exact-match arming only" `Quick
    (fun () ->
      let arms bytes =
        (run_sleeper_with bytes).max_severity = Some Secpert.Severity.High
      in
      (* overlap fallback: a repeated first byte must not eat the match *)
      Alcotest.(check bool) "AARM! arms" true (arms "AARM!");
      Alcotest.(check bool) "junk-wrapped magic arms" true
        (arms "XXARM!XX");
      Alcotest.(check bool) "interleaved near-misses never arm" false
        (arms "ARMARM-AR!M-ARM");
      Alcotest.(check bool) "disarm alone is not the arm magic" false
        (arms "DIS!");
      Alcotest.(check bool) "re-armed after disarm stays armed" true
        (arms "ARM!DIS!ARM!");
      (* the automaton is per byte: a magic split across deliveries
         still matches *)
      let split =
        Guest.Dormant.sleeper_daemon ~name:"sleeper split"
          ~descr:"magic split across two deliveries"
          ~expected:(Guest.Scenario.Malicious Secpert.Severity.High)
          ~script:
            Osim.Net.[ Delay Guest.Dormant.trigger_delay; Send "AR";
                       Delay 200; Send "M!"; Close ]
      in
      Alcotest.(check bool) "split delivery arms" true
        (Guest.Scenario.passes split))

(* ------------------------------------------------------------------ *)
(* fault injection x dormancy (satellite: chaos matrix)                *)

let capture ?fault (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  let r =
    Obs.Trace.to_buffer buf;
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Hth.Session.run ?fault sc.sc_setup)
  in
  Buffer.contents buf, r

let plan spec =
  match Osim.Fault.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault plan %S: %s" spec e

let fault_matrix_case =
  Alcotest.test_case "faults on the trigger channel" `Quick (fun () ->
      let sc = find "sleeper daemon triggered" in
      let check_fault spec ~expect_armed =
        let fault = plan spec in
        let t1, r1 = capture ~fault sc in
        let t2, r2 = capture ~fault sc in
        check_same_trace (spec ^ ": deterministic") ~expected:t1
          ~actual:t2;
        (match expect_armed with
         | true ->
           Alcotest.(check bool) (spec ^ ": still arms") true
             (r1.max_severity = Some Secpert.Severity.High);
           Alcotest.(check bool) (spec ^ ": trigger warning survives")
             true
             (List.exists
                (fun (w : Secpert.Warning.t) ->
                  String.equal w.rule "check_trigger")
                r1.distinct)
         | false ->
           Alcotest.(check bool) (spec ^ ": never arms") true
             (r1.max_severity = None));
        ignore r2
      in
      (* a reset trigger channel delivers no magic: dormancy forever
         (recv decodes as SYS_read; the attacker peer names the conn) *)
      check_fault "SYS_read@attacker=econnreset" ~expect_armed:false;
      (* a one-round peer stall only delays the arming *)
      check_fault "SYS_read@attacker#1=stall" ~expect_armed:true;
      (* a failed accept orphans the trigger channel entirely *)
      check_fault "SYS_accept#1=enoent" ~expect_armed:false)

(* ------------------------------------------------------------------ *)
(* tick budgets: truncation degrades, never flips (satellite: fix)     *)

let budget_case =
  Alcotest.test_case "budget expiring before the trigger degrades"
    `Quick (fun () ->
      let sc = find "sleeper daemon triggered" in
      (* control: the un-budgeted run completes and convicts *)
      let full = Hth.Session.run sc.sc_setup in
      Alcotest.(check bool) "control convicts" true
        (full.max_severity = Some Secpert.Severity.High);
      Alcotest.(check (list string)) "control not degraded" []
        full.degraded;
      let budgets =
        { Hth.Session.no_budgets with b_ticks = Some 1500 }
      in
      match Hth.Session.run_outcome ~budgets sc.sc_setup with
      | Error e ->
        Alcotest.failf "budgeted run errored: %s" (Hth.Error.to_string e)
      | Ok r ->
        (* the trigger never arrived: no spurious conviction... *)
        Alcotest.(check bool) "no verdict flip" true
          (r.max_severity = None);
        Alcotest.(check int) "no warnings" 0 (List.length r.warnings);
        (* ...but the truncation is declared *)
        Alcotest.(check bool) "degraded" true (r.degraded <> []);
        Alcotest.(check bool) "reason names the tick budget" true
          (List.exists (fun m -> contains m "tick budget") r.degraded))

(* ------------------------------------------------------------------ *)
(* serve: dormant verdicts over the wire (satellite)                   *)

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

let serve_field line k =
  match Forensics.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok fields -> List.assoc_opt k fields

let serve_str line k =
  match serve_field line k with
  | Some (Forensics.Jsonl.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" k line

let serve_case =
  Alcotest.test_case "serve returns hth_run's warnings, in order" `Quick
    (fun () ->
      let script =
        [ {|{"scenario":"sleeper daemon triggered"}|};
          {|{"scenario":"ls"}|};
          {|{"scenario":"update client triggered"}|};
          {|{"scenario":"sleeper daemon idle"}|} ]
      in
      let n, out = serve_once script in
      Alcotest.(check int) "responses" 4 n;
      List.iteri
        (fun i line ->
          match serve_field line "seq" with
          | Some (Forensics.Jsonl.Int s) ->
            Alcotest.(check int) "in-order across interleaving" i s
          | _ -> Alcotest.failf "missing seq in %s" line)
        out;
      let direct_findings name =
        let r = Guest.Scenario.run (find name) in
        String.concat "\n"
          (List.map Secpert.Warning.to_string r.distinct)
      in
      (match out with
       | [ a; b; c; d ] ->
         Alcotest.(check string) "triggered verdict" "suspicious[HIGH]"
           (serve_str a "verdict");
         (* the served findings are byte-identical to a direct run's *)
         Alcotest.(check string) "sleeper findings"
           (direct_findings "sleeper daemon triggered")
           (serve_str a "findings");
         Alcotest.(check bool) "findings carry the trigger note" true
           (contains (serve_str a "findings") "trigger-gated");
         Alcotest.(check string) "trusted program stays clean" "benign"
           (serve_str b "verdict");
         Alcotest.(check string) "update findings"
           (direct_findings "update client triggered")
           (serve_str c "findings");
         Alcotest.(check string) "idle mode over the wire" "benign"
           (serve_str d "verdict");
         Alcotest.(check string) "idle has no findings" ""
           (serve_str d "findings")
       | _ -> Alcotest.fail "expected four responses");
      let _, out2 = serve_once script in
      Alcotest.(check (list string)) "service is deterministic" out out2)

let suite =
  [ modes_case; trigger_evidence_case; armed_path_case;
    fleet_determinism_case; automaton_case; fault_matrix_case;
    budget_case; serve_case;
    QCheck_alcotest.to_alcotest no_false_arming_prop ]
