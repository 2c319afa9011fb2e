(** Events Harrier sends to Secpert (Section 6.1.2).

    Two shapes, as in the paper: {e resource access} (a system call names
    a resource — execve, open, connect, bind, accept, clone) and {e data
    transfer} (a write/send moves tagged data into a resource).  Every
    event carries the time (world ticks), the frequency of the attributed
    application basic block and its address — the slots of the CLIPS
    facts of Appendix A.1. *)

type resource_kind = R_file | R_socket | R_stdio

(** A resource plus the provenance of its {e name}. *)
type resource = {
  r_kind : resource_kind;
  r_name : string;  (** path, peer address, or STDIN/STDOUT *)
  r_origin : Taint.Tagset.t;  (** taint of the name's bytes *)
}

(** Event metadata common to all events. *)
type meta = {
  pid : int;
  time : int;
  freq : int;  (** execution count of the attributed application BB *)
  addr : int;  (** leader address of that BB *)
  step : int;
      (** trace step index this event was emitted at (the step of its
          ["flow"] line when a trace sink is installed, the monitor's
          event ordinal otherwise) — lets evidence recorded in
          warnings resolve to concrete trace lines offline *)
}

type t =
  | Exec of { path : resource; argv : string list; meta : meta }
      (** an [execve] is about to run *)
  | Clone of { total : int; recent : int; window : int; meta : meta }
      (** a process is being created; [total] clones so far, [recent] of
          them within the last [window] ticks *)
  | Access of { call : string; res : resource; meta : meta }
      (** open / creat / connect / bind / listen / accept *)
  | Alloc of { requested : int; total : int; meta : meta }
      (** the program break moved; [total] is heap bytes now held *)
  | Transfer of {
      call : string;
      data : Taint.Tagset.t;  (** taint of the transferred bytes *)
      head : string;  (** first bytes of the written data (content
                          analysis: executable magic detection) *)
      sources : (Taint.Source.t * Taint.Tagset.t) list;
          (** each data source paired with the origin of {e its} resource
              name (how the source file/socket was itself named), empty
              for USER_INPUT / BINARY / HARDWARE sources *)
      guard : (Taint.Source.t * Taint.Tagset.t) list;
          (** taint of the most recent {e tainted} compare/test in this
              process — the data that last steered control flow toward
              this transfer.  A SOCKET entry here marks trigger-gated
              (dormant) behaviour: remote bytes armed the path. *)
      target : resource;
      via_server : resource option;
          (** for accepted connections: the listening socket (name = local
              address, origin = taint of the bound address) *)
      len : int;
      meta : meta;
    }

val kind_name : resource_kind -> string

val meta_of : t -> meta

val pp_resource : Format.formatter -> resource -> unit

val pp : Format.formatter -> t -> unit

(** {2 The ["flow"] trace line}

    Every event is written to the trace as one ["flow"] line, and that
    line decodes back to the same event: the JSONL trace is the one
    serialized form of the event stream, and offline replay reads it.

    Fields, after the line's own [step] and [ev]:
    - all shapes: [kind] (exec / clone / access / alloc / transfer),
      [pid], [tick], [freq], [addr];
    - exec: [call], [res_kind], [res_name], [origin], and [argv] unless
      it is empty;
    - access: [call], [res_kind], [res_name], [origin];
    - clone: [total], [recent], [window];
    - alloc: [requested], [total];
    - transfer: [call], [target_kind], [target_name], [target_origin],
      [data], [len], [sources], [guard], [head], and [server_kind],
      [server_name], [server_origin] for accepted connections.

    Tag sets ([origin], [target_origin], [data], [server_origin]) are
    text: a source is its type label ([USER_INPUT], [HARDWARE]) or
    label, [:] and name ([FILE:/etc/passwd]); a set joins its sources
    in canonical order with [,] (the empty set is [""]).  [sources] and
    [guard] join [SOURCE<-SET] entries with [;]; [argv] joins its
    elements with [,].  Inside names, argv elements and [head] the
    bytes [%], [,], [;], [<] and 0x7F-0xFF are written [%XX] (hex), so
    every raw separator is structure and flow lines stay 7-bit; control
    bytes are left to the JSON string escapes. *)

val to_fields : t -> (string * Obs.value) list
(** The fields of [e]'s flow line, without [step] (the trace stamps
    it). *)

val of_fields :
  Taint.Tagset.space -> (string * Obs.value) list -> (t, string) result
(** [of_fields sp fields] decodes a parsed flow line — its [step]
    field included, which becomes [meta.step] — interning tag sets in
    [sp].  [Error] names the missing or malformed field. *)
