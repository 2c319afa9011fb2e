let groups =
  [ "table1", "Execution patterns of malicious code", Characterize.scenarios;
    "table4", "Micro benchmarks - Execution Flow", Micro_exec.scenarios;
    "table5", "Micro benchmarks - Resource Abuse", Micro_fork.scenarios;
    "table6", "Micro benchmarks - Information Flow", Micro_flow.scenarios;
    "table7", "Trusted programs", Trusted.scenarios;
    "table8", "Real exploits", Exploits.scenarios;
    "macro", "Macro benchmarks", Macro.scenarios;
    "extensions", "Future-work extensions (Section 10)",
    Extensions.scenarios;
    "dormant", "Dormant trojans (trigger-gated payloads)",
    Dormant.scenarios ]

let specs = List.concat_map (fun (_, _, sps) -> sps) groups

let find name =
  List.find_opt (fun (sp : Scenario.spec) -> String.equal sp.sp_name name)
    specs
  |> Option.map Scenario.resolve

let all () = List.map Scenario.resolve specs
