(** The inference engine (Fig. 2: "Clips Inference Engine").

    Forward chaining over working memory: whenever the facts satisfy a
    rule's patterns (with consistent variable bindings) an {e activation}
    is placed on the agenda; [run] repeatedly fires the highest-salience
    activation until quiescence.  Refraction is observed — a rule never
    fires twice on the same combination of facts — matching CLIPS
    behaviour and preventing livelock on rules that assert facts. *)

type t

(** A production rule.  [action] runs with the engine, the accumulated
    variable bindings and the matched facts (pattern order). *)
type rule = {
  rule_name : string;
  salience : int;  (** higher fires first; default 0 *)
  patterns : Pattern.t list;
  negated : Pattern.t list;
      (** CLIPS [not] conditional elements: the rule activates only when
          no working-memory fact matches them under the bindings
          accumulated by [patterns] *)
  guard : t -> Pattern.bindings -> bool;
      (** extra join test over the bindings (CLIPS [test] CE) *)
  action : t -> Pattern.bindings -> Fact.t list -> unit;
  rule_firings : Obs.Counter.t;
      (** the rule's [expert.firings.<name>] counter, resolved once when
          the rule is built rather than on every firing *)
}

(** [rule ~name ?salience ?negated ?guard patterns action] builds a
    rule. *)
val rule :
  name:string ->
  ?salience:int ->
  ?negated:Pattern.t list ->
  ?guard:(t -> Pattern.bindings -> bool) ->
  Pattern.t list ->
  (t -> Pattern.bindings -> Fact.t list -> unit) ->
  rule

val create : unit -> t

(** {2 Definitions} *)

val deftemplate : t -> Template.t -> unit

val template : t -> string -> Template.t option

val defrule : t -> rule -> unit

(** [defun e name f] registers a host function callable from textual
    policies ([filter_binary] etc.) and from rule actions. *)
val defun : t -> string -> (Value.t list -> Value.t) -> unit

val call_fn : t -> string -> Value.t list -> Value.t

(** [set_global e name v] defines a global (CLIPS [?*name*]). *)
val set_global : t -> string -> Value.t -> unit

val global : t -> string -> Value.t option

(** {2 Working memory} *)

(** [assert_fact e tpl slots] normalizes against the template and adds a
    fact.  @raise Failure on unknown template or slot. *)
val assert_fact : t -> string -> (string * Value.t) list -> Fact.t

val retract : t -> Fact.t -> unit

val retract_id : t -> int -> unit

val facts : t -> Fact.t list

val fact_by_id : t -> int -> Fact.t option

(** {2 Output}

    Rule actions print through the engine so hosts can capture CLIPS-style
    output. *)

val printout : t -> string -> unit

(** [set_out e f] redirects [printout]; default accumulates internally. *)
val set_out : t -> (string -> unit) -> unit

(** [drain_output e] returns and clears accumulated output lines. *)
val drain_output : t -> string list

(** {2 Inference} *)

(** [run ?limit e] fires activations until the agenda is empty or [limit]
    firings happened (default 10_000); returns the number of firings. *)
val run : ?limit:int -> t -> int

(** [current_activation e] is the activation being fired right now —
    the rule name and the matched facts, in pattern order — or [None]
    outside rule actions.  Warning sinks read this to attach the
    matched facts to a warning as evidence without every policy action
    having to thread them through. *)
val current_activation : t -> (string * Fact.t list) option
