(** Zero-dependency observability: counters, histograms, span timers
    and a pluggable structured-event sink.

    Overhead discipline: the library must be free when observability is
    off.  {!Counter.incr} is a domain-local lookup plus an array store
    (about 10 ns): fine per event, too dear per instruction, where
    callers count into their own fields and {!Counter.add} the total at
    a quantum or session boundary.  {!Trace.emit} does nothing under
    the no-op sink, and call sites are expected to guard with
    {!Trace.enabled} before building field lists so the disabled path
    allocates nothing.  Wall-clock time never enters the trace (only a
    monotone step index), so traces of a deterministic simulation are
    byte-identical across runs.

    Multi-domain model: counter and histogram {e handles} are global —
    registered once by name, so every domain agrees on the observable
    surface — but every mutable cell (counter values, histogram state,
    the trace sink and its step index) is domain-local.  A domain only
    ever reads and writes its own cells: increments never contend,
    traces never interleave, and {!snapshot}/{!diff} describe the
    calling domain alone.  Worker domains hand their finished state to
    a coordinator with {!export}; {!absorb} folds shards into the
    calling domain deterministically (see below). *)

(** A structured field value for trace events. *)
type value = Int of int | Str of string | Bool of bool

(** {2 The flat-JSON dialect}

    Trace lines, segment indexes, warehouse manifests and serve
    responses are all one-level JSON objects over {!value}, written by
    the two functions below and read back by [Forensics.Jsonl]. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped buf s] appends [s] as the body of a JSON string
    literal: quote, backslash and control bytes (< 0x20) are escaped,
    every other byte is copied verbatim, so any byte string round-trips
    through the reader. *)

val render : (string * value) list -> string
(** [render fields] is the object [{"k":v,...}] in field order, with
    no trailing newline. *)

(** Monotone named counters, registered globally by name.  [make] on an
    existing name returns the same counter, so modules can declare
    counters at top level without coordination. *)
module Counter : sig
  type t

  val make : string -> t
  (** [make name] registers (or retrieves) the counter [name]. *)

  val labeled : string -> string -> t
  (** [labeled base label] is [make (base ^ "." ^ label)] — counter
      families keyed by a dynamic label (syscall name, rule name,
      severity, event kind). *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** [add] also serves gauges: pass a negative delta to decrement. *)

  val value : t -> int
  val name : t -> string
end

(** Scalar distributions: count, sum, min, max, and percentiles from a
    deterministic decimating sample reservoir (keep every [stride]-th
    observation, doubling [stride] when the buffer fills — no
    randomness, so percentile output is a pure function of the
    observation sequence). *)
module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> float -> unit

  val reset : t -> unit
  (** Discard the {e calling domain's} observations for this histogram
      — interval measurement (e.g. per-benchmark-phase latency) without
      a global epoch.  Other domains' cells are untouched. *)

  val name : t -> string
  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  val minimum : t -> float
  (** Smallest observation, [0.] when empty. *)

  val maximum : t -> float
  (** Largest observation, [0.] when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] is the nearest-rank [p]-th percentile
      ([0. <= p <= 100.]) over the kept samples; [0.] when empty. *)
end

(** Span timing into a histogram.  The clock is pluggable: the default
    is [Sys.time], i.e. process CPU time (summed over domains, blocking
    excluded); [hth_run], [hth_serve] and [hth_trace] install a
    [CLOCK_MONOTONIC] wall clock at start-up.  Durations go to stats,
    never to the trace. *)
module Span : sig
  val set_clock : (unit -> float) -> unit

  val time : Histogram.t -> (unit -> 'a) -> 'a
  (** [time h f] runs [f], observing its duration (in the clock's
      units) into [h] — also on exception. *)
end

type snapshot = (string * int) list
(** Counter values, sorted by name. *)

val snapshot : unit -> snapshot
(** The calling domain's counter values. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** [diff ~before ~after] is the per-interval activity [after - before],
    dropping untouched counters. *)

val histograms : unit -> Histogram.t list
(** All registered histograms, sorted by name. *)

val counter_families : unit -> string list
(** The stable counter-name surface, sorted: directly-registered
    counter names plus one [base.*] entry per {!Counter.labeled}
    family (generated member names are data-dependent and excluded).
    Snapshotted by the counter-name stability test — renaming a
    counter breaks trace consumers and must show up in CI. *)

(** {2 Shard export and deterministic merge}

    A fleet worker domain accumulates counters, histograms and traces
    into its own cells; when it stops, the coordinator folds the
    worker shards into its own state.  Folding in worker-index order
    makes the merge a deterministic function of the shard contents:
    counter merge is integer addition (so totals are also independent
    of how sessions were partitioned across workers); histogram merge
    is exact for count/sum/min/max and re-decimates the bounded
    percentile reservoirs (deterministic, but — like any bounded
    sample — approximate). *)

type export
(** One domain's observability state as finished data: its nonzero
    counters and non-empty histograms. *)

val export : unit -> export
(** Capture the calling domain's state.  Cheap enough to call once per
    worker lifetime; not meant for per-session use ({!snapshot} is). *)

val absorb : export -> unit
(** Fold an exported shard into the calling domain's own cells. *)

(** The structured-event sink.  Exactly one sink {e per domain}: the
    no-op backend (default, near-zero overhead) or a JSONL line writer.
    Every emitted event carries a monotone [step] index, reset to 0
    when a sink is installed.  Installing a sink affects only the
    calling domain, so fleet workers trace concurrent sessions into
    disjoint buffers. *)
module Trace : sig
  val enabled : unit -> bool
  (** Guard allocation-heavy emission sites on this. *)

  val emit : string -> (string * value) list -> unit
  (** [emit ev fields] writes one JSONL line
      [{"step":N,"ev":ev,...fields}] and bumps the step index.  No-op
      (and allocation-free) when no sink is installed.  Lines render
      into a single reused per-sink buffer — no per-line allocation. *)

  type target
  (** A first-class sink destination: pass one across an API boundary
      (e.g. [Hth.Engine.run_outcome ?trace]) so the callee owns the
      install / flush / disable lifecycle. *)

  val buffer_target : Buffer.t -> target
  (** Lines render directly into the buffer, newline-terminated. *)

  val channel_target : out_channel -> target
  (** Lines are staged in a reused buffer and written to the channel in
      line-aligned chunks of ~64KiB — one [output_string] per chunk
      instead of per line. *)

  val chunk_target : ?threshold:int -> (string -> unit) -> target
  (** [chunk_target write] hands [write] line-aligned chunks of at
      least [threshold] bytes (default 64KiB); the final partial chunk
      is flushed by {!disable}.  This is how the segment store receives
      trace bytes pre-framed. *)

  val install : target -> unit
  (** Install a sink for the calling domain; resets the step index. *)

  val to_channel : out_channel -> unit
  (** [install (channel_target oc)]. *)

  val to_buffer : Buffer.t -> unit
  (** [install (buffer_target b)]. *)

  val disable : unit -> unit
  (** Flush any staged chunk, then restore the no-op backend. *)

  val steps : unit -> int
  (** Events emitted since the current sink was installed. *)
end
