(** Warnings issued to the user. *)

type t = {
  severity : Severity.t;
  rule : string;  (** the policy rule that fired *)
  message : string;  (** paper-style body, possibly multi-line *)
  pid : int;
  time : int;
  rare : bool;  (** "This code is rarely executed..." reinforcement *)
  mult : int;
      (** multiplicity: how many identical warnings this one stands
          for after {!dedup} ([1] as issued) *)
  evidence : Evidence.t;
      (** forensic chain: matched facts (attached by the warning sink
          from the firing activation) and the taint-classified
          resources the policy action consulted *)
}

val make :
  severity:Severity.t -> rule:string -> pid:int -> time:int -> ?rare:bool ->
  ?origins:Evidence.origin_ref list -> string -> t
(** [make ... ?origins message] builds a warning with multiplicity 1;
    [origins] seeds the evidence (matched facts are attached later by
    the system's warning sink). *)

val with_facts : t -> Evidence.fact_ref list -> t
(** [with_facts w refs] replaces the evidence's fact references. *)

(** [pp] renders the paper's format:
    {v Warning [HIGH] Found Write call to ... v}
    with an [(xN)] multiplicity marker after the severity when the
    warning stands for [N > 1] identical occurrences. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_fields : t -> (string * Obs.value) list
(** The fields of the warning's ["warning"] trace line: severity, rule,
    pid, tick, rare, the evidence as [ev_facts]/[ev_origins] (each
    omitted when empty), and message. *)

(** [max_severity ws] is the highest severity present, if any. *)
val max_severity : t list -> Severity.t option

(** [dedup ws] collapses warnings identical in (rule, severity,
    message) into their first occurrence, in order, accumulating the
    duplicates' multiplicity into {!field-mult}. *)
val dedup : t list -> t list
