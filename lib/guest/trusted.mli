(** Table 7 — trusted programs (the false-positive study, Section 8.2).

    Simulated versions of ls, column, make (built / clean / unbuilt),
    g++, awk, pico, tail, diff, wc, bc and xeyes, each performing the
    behaviour the paper describes.  Most are benign; make-clean,
    make-unbuilt, g++ and xeyes reproduce the paper's Low-severity
    warnings on trusted-but-not-well-behaved programs (hard-coded
    execve targets; library data written to a local X socket). *)

val scenarios : Scenario.spec list
