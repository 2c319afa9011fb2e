(* Structural trace diff: the golden comparator (Hth.Golden) promoted
   to an analyst tool, reporting the first-divergence step alongside
   the line numbers. *)

type t = {
  line : int;
  step : int option;  (* step index parsed from the first divergent line *)
  expected : string option;
  actual : string option;
}

let step_of_line raw =
  match Jsonl.parse_line raw with
  | Error _ -> None
  | Ok fields -> Jsonl.int_field fields "step"

let of_divergence (d : Hth.Golden.divergence) =
  let step =
    match d.expected, d.actual with
    | Some l, _ | None, Some l -> step_of_line l
    | None, None -> None
  in
  { line = d.line; step; expected = d.expected; actual = d.actual }

let diff ~expected ~actual =
  Option.map of_divergence (Hth.Golden.first_divergence ~expected ~actual)

let diff_files ~expected ~actual =
  let read path =
    match open_in_bin path with
    | exception Sys_error m -> Error m
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
  in
  match read expected, read actual with
  | Error m, _ | _, Error m -> Error m
  | Ok e, Ok a -> Ok (diff ~expected:e ~actual:a)

let pp ~a_name ~b_name ppf d =
  Fmt.pf ppf "@[<v>traces diverge at line %d%s@," d.line
    (match d.step with
     | Some s -> Fmt.str " (step %d)" s
     | None -> "");
  (match d.expected with
   | Some l -> Fmt.pf ppf "  %s: %s@," a_name l
   | None -> Fmt.pf ppf "  %s: <no line>@," a_name);
  (match d.actual with
   | Some l -> Fmt.pf ppf "  %s: %s@," b_name l
   | None -> Fmt.pf ppf "  %s: <no line>@," b_name);
  Fmt.pf ppf "@]"
