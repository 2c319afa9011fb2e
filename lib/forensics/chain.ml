(* Reconstructing per-warning causal chains from a recorded trace —
   warning line → firing rule line → matched facts (by step) → the
   flow events at those steps → taint origins → the first time the
   originating resource was touched.  Pure trace reading: no engine,
   no guest re-execution, so output is a function of the file bytes
   and byte-deterministic. *)

type fact_ref = {
  fr_template : string;
  fr_id : int;
  fr_step : int;
}

type origin_ref = {
  og_role : string;
  og_type : string;
  og_name : string;
  og_origin_type : string;
  og_origin_name : string;
}

type origin_link = {
  origin : origin_ref;
  res_first : Reader.entry option;
      (* first flow line naming the resource itself *)
  origin_first : Reader.entry option;
      (* first flow line naming the resource the *name* came from *)
}

type t = {
  warning : Reader.entry;
  rule : Reader.entry option;
  facts : (fact_ref * Reader.entry option) list;
  origins : origin_link list;
}

(* ------------------------------------------------------------------ *)
(* Wire-format parsing (see Secpert.Evidence)                          *)

let split_on_string ~sep s =
  let seplen = String.length sep in
  let rec go start acc =
    let idx =
      let rec find i =
        if i + seplen > String.length s then None
        else if String.sub s i seplen = sep then Some i
        else find (i + 1)
      in
      find start
    in
    match idx with
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
  in
  if s = "" then [] else go 0 []

let split_first ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_fact_ref part =
  match split_first ~on:'#' part with
  | None -> None
  | Some (template, rest) ->
    (match split_first ~on:'@' rest with
     | None -> None
     | Some (id, step) ->
       (match int_of_string_opt id, int_of_string_opt step with
        | Some fr_id, Some fr_step ->
          Some { fr_template = template; fr_id; fr_step }
        | _ -> None))

let parse_fact_refs s =
  List.filter_map parse_fact_ref (String.split_on_char ',' s)

let parse_typed s =
  (* "TYPE:name" split at the first ':' — ':' inside names survives *)
  match split_first ~on:':' s with
  | None -> s, ""
  | Some (t, n) -> t, n

let parse_origin_ref part =
  match split_first ~on:'=' part with
  | None -> None
  | Some (role, rest) ->
    let left, right =
      match split_on_string ~sep:"<-" rest with
      | [ l ] -> l, ""
      | l :: r -> l, String.concat "<-" r
      | [] -> "", ""
    in
    let og_type, og_name = parse_typed left in
    let og_origin_type, og_origin_name = parse_typed right in
    Some { og_role = role; og_type; og_name; og_origin_type;
           og_origin_name }

let parse_origin_refs s =
  List.filter_map parse_origin_ref (split_on_string ~sep:";" s)

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)

let link_origin trace origin =
  let lookup name =
    if name = "" then None else Reader.first_naming trace name
  in
  { origin; res_first = lookup origin.og_name;
    origin_first = lookup origin.og_origin_name }

let chain_of_warning trace ~preceding_rule w =
  let facts =
    match Reader.str_field w "ev_facts" with
    | None -> []
    | Some s ->
      List.map
        (fun r -> r, Reader.find_step trace r.fr_step)
        (parse_fact_refs s)
  in
  let origins =
    match Reader.str_field w "ev_origins" with
    | None -> []
    | Some s -> List.map (link_origin trace) (parse_origin_refs s)
  in
  { warning = w; rule = preceding_rule; facts; origins }

let explain trace =
  (* a warning is raised from inside its rule's firing, so its chain's
     rule line is the nearest preceding "rule" entry *)
  let _, chains_rev =
    List.fold_left
      (fun (last_rule, acc) (e : Reader.entry) ->
        match e.ev with
        | "rule" -> Some e, acc
        | "warning" ->
          last_rule, chain_of_warning trace ~preceding_rule:last_rule e :: acc
        | _ -> last_rule, acc)
      (None, []) (Reader.entries trace)
  in
  List.rev chains_rev

(* ------------------------------------------------------------------ *)
(* Rendering: indented text                                            *)

let describe_resource e =
  let typed kind name =
    match kind, name with
    | Some k, Some n -> Fmt.str " %s:%s" k n
    | None, Some n -> Fmt.str " %s" n
    | _ -> ""
  in
  match Reader.str_field e "kind" with
  | Some ("exec" | "access") ->
    typed (Reader.str_field e "res_kind") (Reader.str_field e "res_name")
  | Some "transfer" ->
    Fmt.str " ->%s"
      (typed
         (Reader.str_field e "target_kind")
         (Reader.str_field e "target_name"))
  | _ -> ""

let describe_event (e : Reader.entry) =
  match e.ev with
  | "flow" ->
    let kind = Option.value (Reader.str_field e "kind") ~default:"?" in
    let call =
      match Reader.str_field e "call" with
      | Some c -> " " ^ c
      | None -> ""
    in
    let tick =
      match Reader.int_field e "tick" with
      | Some t -> Fmt.str " (tick %d)" t
      | None -> ""
    in
    Fmt.str "flow %s%s%s%s" kind call (describe_resource e) tick
  | "syscall" ->
    Fmt.str "syscall %s"
      (Option.value (Reader.str_field e "name") ~default:"?")
  | ev -> ev

let pp_indented_message ppf message =
  List.iteri
    (fun i line ->
      if i = 0 then Fmt.pf ppf "  message: %s@," line
      else Fmt.pf ppf "           %s@," (String.trim line))
    (String.split_on_char '\n' message)

let origin_story o =
  match o.og_origin_type with
  | "SOCKET" -> Fmt.str "name originated from SOCKET:%s" o.og_origin_name
  | "FILE" -> Fmt.str "name originated from FILE:%s" o.og_origin_name
  | "BINARY" -> Fmt.str "name hardcoded in BINARY:%s" o.og_origin_name
  | "USER_INPUT" -> "name typed by the user"
  | "HARDWARE" -> "name derived from hardware"
  | _ -> "name origin unknown"

let pp_chain ppf (c : t) =
  let w = c.warning in
  Fmt.pf ppf "@[<v>warning step=%d [%s] rule=%s pid=%d tick=%d%s@,"
    w.Reader.step
    (Option.value (Reader.str_field w "severity") ~default:"?")
    (Option.value (Reader.str_field w "rule") ~default:"?")
    (Option.value (Reader.int_field w "pid") ~default:(-1))
    (Option.value (Reader.int_field w "tick") ~default:(-1))
    (if Reader.bool_field w "rare" = Some true then " (rare)" else "");
  (match Reader.str_field w "message" with
   | Some m -> pp_indented_message ppf m
   | None -> ());
  (match c.rule with
   | Some r ->
     Fmt.pf ppf "  activation: rule=%s step=%d matched=%s@,"
       (Option.value (Reader.str_field r "name") ~default:"?")
       r.Reader.step
       (Option.value (Reader.str_field r "fact_ids") ~default:"")
   | None -> Fmt.pf ppf "  activation: (not recorded)@,");
  List.iter
    (fun (r, entry) ->
      match entry with
      | Some e ->
        Fmt.pf ppf "  fact %s#%d -> step=%d %s@," r.fr_template r.fr_id
          e.Reader.step (describe_event e)
      | None ->
        Fmt.pf ppf "  fact %s#%d -> step=%d (unresolved)@," r.fr_template
          r.fr_id r.fr_step)
    c.facts;
  List.iter
    (fun l ->
      let o = l.origin in
      Fmt.pf ppf "  origin %s %s:%s — %s@," o.og_role o.og_type o.og_name
        (origin_story o);
      (match l.res_first with
       | Some e ->
         Fmt.pf ppf "    resource first touched: step=%d %s@," e.Reader.step
           (describe_event e)
       | None -> ());
      match l.origin_first with
      | Some e ->
        Fmt.pf ppf "    name source first touched: step=%d %s@,"
          e.Reader.step (describe_event e)
      | None -> ())
    c.origins;
  Fmt.pf ppf "@]"

let pp_chains ppf chains =
  if chains = [] then Fmt.pf ppf "no warnings in trace@."
  else
    List.iteri
      (fun i c ->
        if i > 0 then Fmt.pf ppf "@.";
        Fmt.pf ppf "%a@." pp_chain c)
      chains

(* ------------------------------------------------------------------ *)
(* Rendering: JSON                                                     *)

let add_json_string b s =
  Buffer.add_char b '"';
  Obs.add_escaped b s;
  Buffer.add_char b '"'

let add_kv b ~first k add_v =
  if not first then Buffer.add_char b ',';
  add_json_string b k;
  Buffer.add_char b ':';
  add_v ()

let json_of_chain (c : t) =
  let b = Buffer.create 512 in
  let str k v ~first =
    add_kv b ~first k (fun () -> add_json_string b v)
  in
  let int k v ~first =
    add_kv b ~first k (fun () -> Buffer.add_string b (string_of_int v))
  in
  let w = c.warning in
  Buffer.add_char b '{';
  int "step" w.Reader.step ~first:true;
  str "severity"
    (Option.value (Reader.str_field w "severity") ~default:"")
    ~first:false;
  str "rule" (Option.value (Reader.str_field w "rule") ~default:"")
    ~first:false;
  int "pid" (Option.value (Reader.int_field w "pid") ~default:(-1))
    ~first:false;
  int "tick" (Option.value (Reader.int_field w "tick") ~default:(-1))
    ~first:false;
  str "message" (Option.value (Reader.str_field w "message") ~default:"")
    ~first:false;
  (match c.rule with
   | Some r ->
     add_kv b ~first:false "activation" (fun () ->
         Buffer.add_char b '{';
         int "step" r.Reader.step ~first:true;
         str "rule"
           (Option.value (Reader.str_field r "name") ~default:"")
           ~first:false;
         Buffer.add_char b '}')
   | None -> ());
  add_kv b ~first:false "facts" (fun () ->
      Buffer.add_char b '[';
      List.iteri
        (fun i (r, entry) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '{';
          str "template" r.fr_template ~first:true;
          int "id" r.fr_id ~first:false;
          int "step" r.fr_step ~first:false;
          (match entry with
           | Some e -> str "event" (describe_event e) ~first:false
           | None -> str "event" "(unresolved)" ~first:false);
          Buffer.add_char b '}')
        c.facts;
      Buffer.add_char b ']');
  add_kv b ~first:false "origins" (fun () ->
      Buffer.add_char b '[';
      List.iteri
        (fun i l ->
          if i > 0 then Buffer.add_char b ',';
          let o = l.origin in
          Buffer.add_char b '{';
          str "role" o.og_role ~first:true;
          str "type" o.og_type ~first:false;
          str "name" o.og_name ~first:false;
          str "origin_type" o.og_origin_type ~first:false;
          str "origin_name" o.og_origin_name ~first:false;
          (match l.res_first with
           | Some e -> int "first_seen_step" e.Reader.step ~first:false
           | None -> ());
          (match l.origin_first with
           | Some e ->
             int "origin_first_seen_step" e.Reader.step ~first:false
           | None -> ());
          Buffer.add_char b '}')
        c.origins;
      Buffer.add_char b ']');
  Buffer.add_char b '}';
  Buffer.contents b
