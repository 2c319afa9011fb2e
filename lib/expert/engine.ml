type t = {
  templates : (string, Template.t) Hashtbl.t;
  mutable rules_rev : rule list;  (* reversed definition order *)
  mutable rules_fwd : rule list option;  (* memoized definition order *)
  wm_by_tpl : (string, Fact.t list) Hashtbl.t;
      (* working memory indexed by template name, newest first — joins
         only ever look at facts of the pattern's template *)
  wm_by_id : (int, Fact.t) Hashtbl.t;
  mutable wm_count : int;
  mutable next_id : int;
  fired : (string, unit) Hashtbl.t;  (* refraction keys *)
  fns : (string, Value.t list -> Value.t) Hashtbl.t;
  globals : (string, Value.t) Hashtbl.t;
  mutable out : string -> unit;
  mutable buffered : string list;  (* reversed *)
  mutable current : (string * Fact.t list) option;
      (* the activation being fired right now: rule name + matched
         facts, visible to code called from rule actions (warning
         sinks capture it as evidence) *)
}

and rule = {
  rule_name : string;
  salience : int;
  patterns : Pattern.t list;
  negated : Pattern.t list;
      (* CLIPS [not] conditional elements: the rule activates only when
         no fact matches them under the accumulated bindings *)
  guard : t -> Pattern.bindings -> bool;
  action : t -> Pattern.bindings -> Fact.t list -> unit;
  rule_firings : Obs.Counter.t;
}

let rule ~name ?(salience = 0) ?(negated = []) ?(guard = fun _ _ -> true)
    patterns action =
  { rule_name = name; salience; negated; patterns; guard; action;
    rule_firings = Obs.Counter.labeled "expert.firings" name }

let c_asserted = Obs.Counter.make "expert.facts.asserted"
let c_retracted = Obs.Counter.make "expert.facts.retracted"
let c_activations = Obs.Counter.make "expert.activations"
let c_firings = Obs.Counter.make "expert.firings"

let create () =
  let e =
    { templates = Hashtbl.create 16; rules_rev = []; rules_fwd = Some [];
      wm_by_tpl = Hashtbl.create 16; wm_by_id = Hashtbl.create 64;
      wm_count = 0; next_id = 1;
      fired = Hashtbl.create 64; fns = Hashtbl.create 16;
      globals = Hashtbl.create 16; out = ignore; buffered = [];
      current = None }
  in
  e.out <- (fun line -> e.buffered <- line :: e.buffered);
  e

let deftemplate e tpl = Hashtbl.replace e.templates tpl.Template.tpl_name tpl

let template e name = Hashtbl.find_opt e.templates name

let defrule e r =
  e.rules_rev <- r :: e.rules_rev;
  e.rules_fwd <- None

let rules e =
  match e.rules_fwd with
  | Some rs -> rs
  | None ->
    let rs = List.rev e.rules_rev in
    e.rules_fwd <- Some rs;
    rs

let defun e name f = Hashtbl.replace e.fns name f

let call_fn e name args =
  match Hashtbl.find_opt e.fns name with
  | Some f -> f args
  | None -> failwith (Fmt.str "Engine: unknown function %S" name)

let set_global e name v = Hashtbl.replace e.globals name v

let global e name = Hashtbl.find_opt e.globals name

(* Facts of one template, newest first. *)
let bucket e tpl_name =
  match Hashtbl.find_opt e.wm_by_tpl tpl_name with
  | Some facts -> facts
  | None -> []

let assert_fact e tpl_name slots =
  let tpl =
    match template e tpl_name with
    | Some t -> t
    | None -> failwith (Fmt.str "Engine: unknown template %S" tpl_name)
  in
  match Template.normalize tpl slots with
  | Error msg -> failwith ("Engine: " ^ msg)
  | Ok slots ->
    let fact = Fact.make ~id:e.next_id ~template:tpl_name ~slots in
    Obs.Counter.incr c_asserted;
    e.next_id <- e.next_id + 1;
    Hashtbl.replace e.wm_by_tpl tpl_name (fact :: bucket e tpl_name);
    Hashtbl.replace e.wm_by_id fact.Fact.id fact;
    e.wm_count <- e.wm_count + 1;
    fact

let retract_id e id =
  match Hashtbl.find_opt e.wm_by_id id with
  | None -> ()
  | Some fact ->
    Obs.Counter.incr c_retracted;
    Hashtbl.remove e.wm_by_id id;
    e.wm_count <- e.wm_count - 1;
    let tpl = fact.Fact.template in
    Hashtbl.replace e.wm_by_tpl tpl
      (List.filter (fun f -> f.Fact.id <> id) (bucket e tpl))

let retract e (f : Fact.t) = retract_id e f.id

(* Ids are allocated monotonically, so newest-first is descending id. *)
let facts e =
  Hashtbl.fold (fun _ f acc -> f :: acc) e.wm_by_id []
  |> List.sort (fun a b -> Int.compare b.Fact.id a.Fact.id)

let fact_by_id e id = Hashtbl.find_opt e.wm_by_id id

let printout e line = e.out line

let set_out e f = e.out <- f

let drain_output e =
  let lines = List.rev e.buffered in
  e.buffered <- [];
  lines

(* An activation key encodes rule name + matched fact ids for refraction. *)
let activation_key rule facts =
  String.concat ","
    (rule.rule_name :: List.map (fun f -> string_of_int f.Fact.id) facts)

(* Enumerate activations by depth-first join over the rule's patterns,
   each pattern considering only the facts of its own template; negated
   conditional elements must match no fact under the final bindings. *)
let activations e rule =
  let negation_clear bindings =
    not
      (List.exists
         (fun p ->
           List.exists
             (fun f -> Pattern.match_fact p bindings f <> None)
             (bucket e p.Pattern.p_template))
         rule.negated)
  in
  let rec go patterns bindings matched acc =
    match patterns with
    | [] ->
      let matched = List.rev matched in
      if rule.guard e bindings && negation_clear bindings then begin
        Obs.Counter.incr c_activations;
        (bindings, matched) :: acc
      end
      else acc
    | p :: rest ->
      List.fold_left
        (fun acc fact ->
          match Pattern.match_fact p bindings fact with
          | Some bindings' -> go rest bindings' (fact :: matched) acc
          | None -> acc)
        acc
        (bucket e p.Pattern.p_template)
  in
  go rule.patterns [] [] []

let next_activation e =
  let candidates =
    List.concat_map
      (fun rule ->
        List.filter_map
          (fun (bindings, matched) ->
            let key = activation_key rule matched in
            if Hashtbl.mem e.fired key then None
            else Some (rule, bindings, matched, key))
          (activations e rule))
      (rules e)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun ((r, _, _, _) as best) ((r', _, _, _) as cand) ->
          if r'.salience > r.salience then cand else best)
        first rest
    in
    Some best

let run ?(limit = 10_000) e =
  let rec loop fired =
    if fired >= limit then fired
    else
      match next_activation e with
      | None -> fired
      | Some (rule, bindings, matched, key) ->
        Hashtbl.replace e.fired key ();
        Obs.Counter.incr c_firings;
        Obs.Counter.incr rule.rule_firings;
        if Obs.Trace.enabled () then
          Obs.Trace.emit "rule"
            [ "name", Obs.Str rule.rule_name;
              "salience", Obs.Int rule.salience;
              "facts", Obs.Int (List.length matched);
              "fact_ids",
              Obs.Str
                (String.concat ","
                   (List.map
                      (fun f -> string_of_int f.Fact.id)
                      matched)) ];
        e.current <- Some (rule.rule_name, matched);
        Fun.protect
          ~finally:(fun () -> e.current <- None)
          (fun () -> rule.action e bindings matched);
        loop (fired + 1)
  in
  loop 0

let current_activation e = e.current
