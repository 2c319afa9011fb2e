type entry = {
  step : int;
  ev : string;
  fields : (string * Jsonl.value) list;
  line : int;
  raw : string;
}

type t = {
  entries : entry list;
  by_step : (int, entry) Hashtbl.t;
}

let int_field e = Jsonl.int_field e.fields
let str_field e = Jsonl.str_field e.fields
let bool_field e = Jsonl.bool_field e.fields

let entry_of_line ~line raw =
  match Jsonl.parse_line raw with
  | Error m -> Error (Fmt.str "line %d: %s" line m)
  | Ok fields ->
    let step = Option.value ~default:(-1) (Jsonl.int_field fields "step") in
    let ev = Option.value ~default:"" (Jsonl.str_field fields "ev") in
    if step < 0 then Error (Fmt.str "line %d: missing step index" line)
    else if ev = "" then Error (Fmt.str "line %d: missing ev kind" line)
    else Ok { step; ev; fields; line; raw }

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (i + 1) acc rest
    | raw :: rest ->
      (match entry_of_line ~line:i raw with
       | Error _ as e -> e
       | Ok entry -> go (i + 1) (entry :: acc) rest)
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok entries ->
    let by_step = Hashtbl.create (List.length entries) in
    List.iter (fun e -> Hashtbl.replace by_step e.step e) entries;
    Ok { entries; by_step }

let of_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

let entries t = t.entries

let length t = List.length t.entries

let find_step t step = Hashtbl.find_opt t.by_step step

(* Does [e] name [name] in any resource-bearing field?  Flow lines
   carry structured [res_name]/[target_name]/[server_name] fields;
   warnings carry none of these, so this is an event-side notion. *)
let names_resource e name =
  let matches f = str_field e f = Some name in
  matches "res_name" || matches "target_name" || matches "server_name"

let first_naming t name =
  List.find_opt
    (fun e -> e.ev = "flow" && names_resource e name)
    t.entries

type decode_error = { de_step : int; de_line : int; de_reason : string }

let pp_decode_error ppf e =
  Fmt.pf ppf "line %d: flow step %d: %s" e.de_line e.de_step e.de_reason

let events t =
  let sp = Taint.Space.create () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest when e.ev <> "flow" -> go acc rest
    | e :: rest ->
      (match Harrier.Events.of_fields sp e.fields with
       | Ok ev -> go (ev :: acc) rest
       | Error de_reason ->
         Error { de_step = e.step; de_line = e.line; de_reason })
  in
  go [] t.entries
