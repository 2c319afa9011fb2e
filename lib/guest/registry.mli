(** The evaluation corpus by name, built on demand.

    Loading this module builds nothing: every group lists its scenarios
    as {!Scenario.spec}s (metadata plus a build function).  {!find}
    builds the one scenario asked for; {!all} builds every one.  Builds are
    memoised per scenario under a mutex, so any domain or thread may
    resolve, and repeated lookups return the physically same
    {!Scenario.t}.  {!Corpus} is the eagerly built view of the same
    scenarios. *)

(** [(group id, human title, specs)] in paper order. *)
val groups : (string * string * Scenario.spec list) list

(** [find name] resolves the scenario whose [sc_name] is [name],
    building only that one. *)
val find : string -> Scenario.t option

(** [all ()] resolves every scenario, in corpus order.  Call it on the
    main domain before starting workers that need the whole corpus. *)
val all : unit -> Scenario.t list
