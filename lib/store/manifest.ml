type entry = {
  e_run : string;
  e_scenario : string;
  e_policy : string;
  e_seed : int option;
  e_fault : string option;
  e_verdict : string;
  e_expected : string;
  e_match : bool;
  e_warnings : int;
  e_distinct : int;
  e_degraded : bool;
  e_steps : int;
  e_raw_bytes : int;
  e_framed_bytes : int;
  e_digest : string;
  e_segment : string;
}

let digest counters =
  let h = ref 0xcbf29ce484222325L in
  let mix c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L
  in
  List.iter
    (fun (name, value) ->
      String.iter mix name;
      mix '=';
      String.iter mix (string_of_int value);
      mix '\n')
    counters;
  Printf.sprintf "%016Lx" !h

let render e =
  Obs.render
    ([ "run", Obs.Str e.e_run; "scenario", Obs.Str e.e_scenario;
       "policy", Obs.Str e.e_policy ]
     @ Option.fold ~none:[] ~some:(fun s -> [ "seed", Obs.Int s ]) e.e_seed
     @ Option.fold ~none:[] ~some:(fun f -> [ "fault", Obs.Str f ]) e.e_fault
     @ [ "verdict", Obs.Str e.e_verdict; "expected", Obs.Str e.e_expected;
         "match", Obs.Bool e.e_match; "warnings", Obs.Int e.e_warnings;
         "distinct", Obs.Int e.e_distinct; "degraded", Obs.Bool e.e_degraded;
         "steps", Obs.Int e.e_steps; "raw_bytes", Obs.Int e.e_raw_bytes;
         "framed_bytes", Obs.Int e.e_framed_bytes;
         "digest", Obs.Str e.e_digest; "segment", Obs.Str e.e_segment ])
  ^ "\n"

let parse line =
  match Forensics.Jsonl.parse_line line with
  | Error e -> Error ("bad manifest line: " ^ e)
  | Ok fields -> (
    let str = Forensics.Jsonl.str_field fields
    and int = Forensics.Jsonl.int_field fields
    and bool = Forensics.Jsonl.bool_field fields in
    match
      ( (str "run", str "scenario", str "policy", str "verdict"),
        (str "expected", bool "match", int "warnings", int "distinct"),
        (bool "degraded", int "steps", int "raw_bytes", int "framed_bytes"),
        (str "digest", str "segment") )
    with
    | ( (Some e_run, Some e_scenario, Some e_policy, Some e_verdict),
        (Some e_expected, Some e_match, Some e_warnings, Some e_distinct),
        (Some e_degraded, Some e_steps, Some e_raw_bytes, Some e_framed_bytes),
        (Some e_digest, Some e_segment) ) ->
      Ok
        { e_run; e_scenario; e_policy; e_seed = int "seed";
          e_fault = str "fault"; e_verdict; e_expected; e_match; e_warnings;
          e_distinct; e_degraded; e_steps; e_raw_bytes; e_framed_bytes;
          e_digest; e_segment }
    | _ -> Error "manifest line missing required fields")
