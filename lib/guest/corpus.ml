let groups =
  List.map
    (fun (id, title, sps) -> id, title, List.map Scenario.resolve sps)
    Registry.groups

let all = List.concat_map (fun (_, _, scs) -> scs) groups

let find = Registry.find

let names = List.map (fun (sc : Scenario.t) -> sc.sc_name) all
