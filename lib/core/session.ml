(* One-shot sessions: the historical convenience API, now thin wrappers
   over {!Engine}.  Each [run] builds a single-use engine (compiling
   the policy and linking images for just this run) and discards it;
   callers that run many sessions should hold an [Engine.t] instead. *)

type setup = Engine.setup = {
  programs : Binary.Image.t list;
  files : (string * string) list;
  hosts : (string * int) list;
  servers : (string * int * Osim.Net.actor) list;
  incoming : (int * Osim.Net.actor) list;
  user_input : string list;
  main : string;
  argv : string list;
  env : string list;
  max_ticks : int;
}

let localhost_ip = Engine.localhost_ip

let setup = Engine.setup

type tier_counts = Engine.tier_counts = {
  tc_interpreted : int;
  tc_compiled : int;
  tc_summarized : int;
  tc_deopt : int;
}

type result = Engine.result = {
  os_report : Osim.Kernel.report;
  events : Harrier.Events.t list;
  warnings : Secpert.Warning.t list;
  distinct : Secpert.Warning.t list;
  max_severity : Secpert.Severity.t option;
  event_count : int;
  degraded : string list;
  stats : Obs.snapshot;
  hot_blocks : (int * int * int) list;
  tier : tier_counts;
}

type budgets = Engine.budgets = {
  b_ticks : int option;
  b_wm_facts : int option;
  b_shadow_pages : int option;
  b_warnings : int option;
}

let no_budgets = Engine.no_budgets

let parse_budgets = Engine.parse_budgets

let run_outcome ?monitor_config ?trust ?thresholds ?auto_kill ?policy
    ?budgets ?fault ?trace s =
  let eng =
    Engine.create ?monitor_config ?trust ?thresholds ?auto_kill ?policy ()
  in
  Engine.run_outcome eng ?budgets ?fault ?trace s

let run ?monitor_config ?trust ?thresholds ?auto_kill ?policy ?budgets ?fault
    ?trace s =
  match
    run_outcome ?monitor_config ?trust ?thresholds ?auto_kill ?policy
      ?budgets ?fault ?trace s
  with
  | Ok r -> r
  | Error e -> raise (Error.Error_exn e)

let run_unmonitored = Engine.run_unmonitored
