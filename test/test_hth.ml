let run_group scenarios () =
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      let r = Guest.Scenario.run sc in
      let v = Hth.Report.verdict r in
      Fmt.epr "=== %s: expected %s, got %s@."
        sc.sc_name (Guest.Scenario.expected_label sc.sc_expected)
        (Hth.Report.verdict_label v);
      List.iter (fun w -> Fmt.epr "%s@." (Secpert.Warning.to_string w)) r.distinct;
      Fmt.epr "%a@." (Osim.Kernel.pp_report) r.os_report;
      Alcotest.(check bool) (sc.sc_name ^ " verdict") true
        (Guest.Scenario.matches sc.sc_expected v))
    scenarios

let () =
  Alcotest.run "hth"
    [ "taint", Test_taint.suite;
      "expert", Test_expert.suite;
      "vm", Test_vm.suite;
      "asm", Test_asm.suite;
      "osim", Test_osim.suite;
      "harrier", Test_harrier.suite;
      "secpert", Test_secpert.suite;
      "properties", Test_props.suite;
      "session", Test_session.suite;
      "engine", Test_engine.suite;
      "extensions", Test_extensions.suite;
      "clips-policy", Test_clips_policy.suite;
      "trace", Test_replay.suite;
      "chaos", Test_chaos.suite;
      "golden", Test_golden.suite;
      "forensics", Test_forensics.suite;
      "fleet", Test_fleet.suite;
      "supervise", Test_supervise.suite;
      "dormant", Test_dormant.suite;
      "store", Test_store.suite;
      "counters", Test_counters.suite;
      "alloc", Test_alloc.suite;
      "table1",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Characterize.scenarios) ];
      "table4",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Micro_exec.scenarios) ];
      "table5",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Micro_fork.scenarios) ];
      "table6",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Micro_flow.scenarios) ];
      "table7",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Trusted.scenarios) ];
      "table8",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Exploits.scenarios) ];
      "macro",
      [ Alcotest.test_case "smoke" `Quick
          (run_group Guest.Macro.scenarios) ] ]
