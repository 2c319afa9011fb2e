(** The whole evaluation corpus, grouped by the paper's tables, built
    when this module is initialised.  For tests, benches and examples
    that use every scenario; programs that run a few should resolve
    them through {!Registry} instead.  Both return the same physical
    {!Scenario.t}s. *)

(** [(group id, human title, scenarios)] in paper order. *)
val groups : (string * string * Scenario.t list) list

val all : Scenario.t list

(** [find name] looks a scenario up by its [sc_name]. *)
val find : string -> Scenario.t option

val names : string list
