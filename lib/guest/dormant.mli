(** Dormant-trojan scenarios: programs that idle benignly for thousands
    of ticks and only arm on an external trigger.

    Four families, each run in three modes (never triggered / triggered
    / triggered-then-disarmed):
    - a sleeper daemon armed by a magic byte sequence on a socket and
      stood down by a second sequence;
    - a logic bomb keyed on the simulated date and a rendezvous record
      in the hosts database, with a kill-switch file;
    - a two-process worm that replicates to a peer only after a
      vulnerable banner (and honours a recall);
    - a fake update client whose payload arrives over the wire as a new
      image.

    The armed path of every program must execute only in the triggered
    mode, stay out of the hot-block profile even then, and produce a
    warning whose evidence chain cites the trigger input. *)

val group : string

(** Arm / disarm magic for the sleeper daemon's byte automaton.  Both
    magics start with a byte that does not recur inside them, so the
    automaton's first-character fallback makes matching exactly
    substring containment (no partial-match false arming). *)

val magic_arm : string

val magic_disarm : string

(** Ticks every scripted peer stays silent before delivering anything —
    beyond the policy's long-time threshold, so armed paths are
    rarely-executed by construction. *)
val trigger_delay : int

(** Armed-path address ranges [(first, past-last)) of each family's
    program, from the images' [payload] / [payload_end] exports — the
    hot/cold profile assertions check executed blocks against these.
    Each builds (once) the family's program image. *)

val sleeper_payload : unit -> int * int

val bomb_payload : unit -> int * int

val worm_payload : unit -> int * int

val update_payload : unit -> int * int

(** [sleeper_daemon ~name ~descr ~expected ~script] is a sleeper-daemon
    scenario against a custom attacker script — the qcheck no-false-
    arming property feeds random byte sequences through this. *)
val sleeper_daemon :
  name:string -> descr:string -> expected:Scenario.expected ->
  script:Osim.Net.step list -> Scenario.t

(** The twelve corpus scenarios (four families x three modes). *)
val scenarios : Scenario.spec list
