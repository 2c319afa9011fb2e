(** Table 5 — resource-abuse micro-benchmarks.

    [loop forker]: one main thread forks children that loop and sleep.
    [tree forker]: every process (parent and child) keeps forking,
    growing a process tree.  Both must trip the clone count (Low) and
    clone rate (Medium) rules. *)

val scenarios : Scenario.spec list
