type t = {
  severity : Severity.t;
  rule : string;
  message : string;
  pid : int;
  time : int;
  rare : bool;
  mult : int;
  evidence : Evidence.t;
}

let make ~severity ~rule ~pid ~time ?(rare = false) ?(origins = []) message =
  { severity; rule; message; pid; time; rare; mult = 1;
    evidence = { Evidence.facts = []; origins } }

let with_facts w facts =
  { w with evidence = { w.evidence with Evidence.facts } }

let pp ppf w =
  Fmt.pf ppf "Warning [%a]%s %s%s" Severity.pp w.severity
    (if w.mult > 1 then Fmt.str " (x%d)" w.mult else "")
    w.message
    (if w.rare then "\n\tThis code is rarely executed..." else "")

let to_string = Fmt.to_to_string pp

let to_fields w =
  let ev = w.evidence in
  [ "severity", Obs.Str (Severity.label w.severity); "rule", Obs.Str w.rule;
    "pid", Obs.Int w.pid; "tick", Obs.Int w.time; "rare", Obs.Bool w.rare ]
  @ (if ev.Evidence.facts = [] then []
     else [ "ev_facts", Obs.Str (Evidence.facts_to_string ev) ])
  @ (if ev.Evidence.origins = [] then []
     else [ "ev_origins", Obs.Str (Evidence.origins_to_string ev) ])
  @ [ "message", Obs.Str w.message ]

let max_severity ws =
  List.fold_left
    (fun acc w ->
      match acc with
      | None -> Some w.severity
      | Some s -> if Severity.(w.severity >= s) then Some w.severity else acc)
    None ws

(* Duplicates collapse into the first occurrence, which accumulates
   their multiplicity so alarm volume stays visible in reports. *)
let dedup ws =
  let seen : (string * string * string, t ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let kept_rev =
    List.fold_left
      (fun acc w ->
        let key = w.rule, Severity.label w.severity, w.message in
        match Hashtbl.find_opt seen key with
        | Some r ->
          r := { !r with mult = !r.mult + w.mult };
          acc
        | None ->
          let r = ref w in
          Hashtbl.replace seen key r;
          r :: acc)
      [] ws
  in
  List.rev_map (fun r -> !r) kept_rev
