(** Table 4 — execution-flow micro-benchmarks.

    Four programs that call [execve] with a program name of different
    provenance: typed by the user (benign), hard-coded (Low), hard-coded
    in rarely-executed late code (Medium), received from a remote socket
    (High). *)

val scenarios : Scenario.spec list
