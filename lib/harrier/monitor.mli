(** Harrier: the run-time monitor (Section 7, Fig. 6).

    [attach] wires the monitor into a kernel: it installs the machine
    hooks (instruction dataflow, basic-block frequency) and the kernel
    monitor callbacks (image loads, process starts, forks, syscalls).
    Events are delivered to a list of {e subscribers} registered with
    {!subscribe} — trace emission, metrics, an event accumulator, and
    Secpert in the full framework.  Every subscriber sees every event;
    any of them may answer [Kill], which stops the offending process
    before the system call executes. *)

type config = {
  track_dataflow : bool;  (** per-instruction taint (Section 7.3) *)
  track_frequency : bool;  (** BB counting (Section 7.4) *)
  shortcircuit : Shortcircuit.spec list;
      (** library routines tracked atomically (Section 7.2) *)
  clone_window : int;  (** ticks; clones within it count as "recent" *)
  shadow_page_budget : int option;
      (** bound on live shadow pages per process; when it trips, taint
          saturates to conservative over-tainting (see {!Shadow.create})
          and the run is flagged {!degraded}.  [None] = exact tracking *)
  tier : bool;
      (** tiered execution: hot straight-line blocks run as compiled
          bodies with one fused taint-summary application instead of
          per-instruction shadow ops.  Behaviour-preserving — blocks
          whose flow the summary analysis cannot capture exactly stay
          interpreted.  Forced off under a [shadow_page_budget]. *)
  tier_threshold : int;
      (** per-process hit count at which a block is promoted *)
}

(** Everything on: dataflow, frequency, gethostbyname short-circuit,
    a 3000-tick clone window, tiering at threshold 8. *)
val default_config : config

type t

(** An event consumer.  Sinks are called in registration order on every
    event; the monitor's combined decision is [Kill] iff any sink
    answered [Kill] (no sink is skipped — accumulators and metrics stay
    exact even for killed processes). *)
type sink = Events.t -> Osim.Kernel.decision

(** [attach ?config ?space kernel] installs the monitor.  Call before
    [Kernel.spawn].  [space] is the taint hash-consing arena used for
    every tag the monitor creates (process shadows share it); absent, a
    fresh private space is created. *)
val attach : ?config:config -> ?space:Taint.Space.t -> Osim.Kernel.t -> t

val config : t -> config

(** The taint space all of this monitor's tags live in. *)
val space : t -> Taint.Space.t

(** [subscribe t ~name f] appends [f] to the subscriber list.  [name]
    identifies the sink in {!subscribers} (diagnostics).  Decisions of
    sinks are honoured for events emitted {e before} a system call
    executes.

    Registration order is the dispatch order, and it matters for traced
    runs: {!trace_sink} must be registered {e first}, so each event's
    "flow" line lands at the step pre-stamped in its meta and precedes
    any "rule"/"warning" lines emitted by a policy sink downstream. *)
val subscribe : t -> name:string -> sink -> unit

(** Registered sink names, in dispatch order. *)
val subscribers : t -> string list

(** Emits one "flow" trace line per event, {!Events.to_fields} (no-op
    when tracing is off).  Register first; see {!subscribe}. *)
val trace_sink : sink

(** Counts events into [harrier.events] and [harrier.events.<kind>]. *)
val metrics_sink : sink

val event_count : t -> int

(** [shadow_of_pid t pid] exposes a process's taint state (tests,
    diagnostics). *)
val shadow_of_pid : t -> int -> Shadow.t option

(** [tier_stats t] is [(compiled, summarized, deopt)]: block executions
    that ran as compiled bodies, those of them whose taint transfer was
    applied as one fused summary, and deoptimizations (promotion
    rejections plus runtime bounds bail-outs back to interpretation). *)
val tier_stats : t -> int * int * int

(** [settle t] brings the Obs counters fed by the per-block and
    per-access paths up to date: [vm.blocks.promoted],
    [vm.blocks.deopt] and [harrier.summary.applied] from the tier
    counts above (only what earlier settles have not added, so it is
    idempotent), then the monitor's taint space ({!Taint.Space.settle}:
    [taint.*] and [harrier.shadow.*]).  Those paths count into plain
    fields instead of paying an Obs domain-local lookup each time;
    the session engine calls this before reading an Obs snapshot, on
    every exit path. *)
val settle : t -> unit

(** [hot_blocks t ~limit] is the top-[limit] hottest application basic
    blocks as [(pid, leader, count)] (see {!Freq.hot}); deterministic
    ordering. *)
val hot_blocks : t -> limit:int -> (int * int * int) list

(** [degraded t] lists one human-readable reason per process whose
    shadow tripped its page budget (pid order, deterministic); empty
    when monitoring stayed exact.  Degraded runs over-taint — they may
    raise extra warnings but never lose one. *)
val degraded : t -> string list

(** Table 3 of the paper: (policy rule, instrumentation granularity,
    information gathered), one row per instrumentation point this
    monitor registers. *)
val instrumentation_table : (string * string * string) list
