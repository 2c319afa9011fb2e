(** Table 6 — information-flow micro-benchmarks.

    A generator produces one guest program per (source, target,
    name-origin) combination: data flows from BINARY / FILE / SOCKET /
    HARDWARE sources to FILE / SOCKET targets, with each resource name
    given by the user (argv), hard-coded, or received from a remote
    socket.  Socket benchmarks additionally run in server mode (the
    guest binds, listens and accepts), exercising the pma-style
    escalation. *)

(** The origin of one resource name in a generated program. *)
type name_src =
  | From_argv of int  (** argv[n]: USER_INPUT *)
  | Hardwired of string  (** .rodata: BINARY *)
  | From_remote  (** fetched from the control server: SOCKET *)

val scenarios : Scenario.spec list
