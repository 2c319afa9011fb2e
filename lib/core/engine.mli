(** The session engine: compile-once shared artifacts, reused across
    many sessions.

    An engine freezes everything about running HTH sessions that does
    not depend on one particular run — monitor configuration, trust
    database, policy thresholds, the policy itself (compiled once; for
    the textual CLIPS policy that is one parse for the engine's whole
    lifetime), and a cache of linked binary images keyed by program
    set.  {!run} then builds only genuinely per-session state: file
    system, network, kernel, monitor, Secpert instance, and (by
    default) a fresh taint space.

    Determinism contract: a session run through a warm shared engine
    produces byte-identical traces, warnings and verdicts to the same
    session run cold ({!Session.run}).  All shared-artifact resolution
    (image-cache lookups, linking) happens before the run's counter
    snapshot, so it never leaks into [result.stats] or the trace.  The
    one documented exception is [share_taint_space]: sharing one taint
    arena across sessions makes the per-run [taint.*] cache counters
    depend on what ran before, so traced runs then omit them. *)

type setup = {
  programs : Binary.Image.t list;  (** images installed into the fs *)
  files : (string * string) list;  (** plain files: (path, contents) *)
  hosts : (string * int) list;  (** DNS entries: (name, ip) *)
  servers : (string * int * Osim.Net.actor) list;
      (** remote servers the guest may connect to: (host, port, actor) *)
  incoming : (int * Osim.Net.actor) list;
      (** scripted remote clients for guest listeners: (port, actor) *)
  user_input : string list;  (** successive stdin chunks *)
  main : string;  (** path of the executable to spawn *)
  argv : string list;
  env : string list;  (** environment strings ("NAME=value") *)
  max_ticks : int;
}

(** [setup ~main ()] with sensible defaults: [argv = [main]],
    [max_ticks = 2_000_000], the loopback host predeclared. *)
val setup :
  ?programs:Binary.Image.t list ->
  ?files:(string * string) list ->
  ?hosts:(string * int) list ->
  ?servers:(string * int * Osim.Net.actor) list ->
  ?incoming:(int * Osim.Net.actor) list ->
  ?user_input:string list ->
  ?argv:string list ->
  ?env:string list ->
  ?max_ticks:int ->
  main:string ->
  unit ->
  setup

(** The loopback address every world knows as ["LocalHost"]. *)
val localhost_ip : int

(** Per-tier basic-block execution counts for one run. *)
type tier_counts = {
  tc_interpreted : int;  (** block executions stepped per-instruction *)
  tc_compiled : int;  (** block executions run as compiled bodies *)
  tc_summarized : int;
      (** compiled executions whose taint transfer was one fused
          summary application *)
  tc_deopt : int;
      (** deoptimizations: promotion rejections (flow not exactly
          summarizable) plus runtime bounds bail-outs *)
}

val no_tier_counts : tier_counts

(** [strategy_counter name] holds for the counters that measure how a
    run was executed rather than what the guest did — [taint.*],
    [harrier.shadow.*], [vm.blocks.*], [harrier.summary.*] — and that
    {!result.stats} therefore leaves out. *)
val strategy_counter : string -> bool

type result = {
  os_report : Osim.Kernel.report;
  events : Harrier.Events.t list;
      (** the full event stream, oldest first — [[]] when the engine
          was created with [keep_events:false] *)
  warnings : Secpert.Warning.t list;
  distinct : Secpert.Warning.t list;  (** deduplicated *)
  max_severity : Secpert.Severity.t option;
  event_count : int;
      (** total events emitted (exact even with [keep_events:false]) *)
  degraded : string list;
      (** non-empty when a monitoring budget tripped mid-run: the
          verdict is still sound but conservative (over-tainting may
          add warnings, the warning transcript may be truncated).  One
          human-readable reason per trip. *)
  stats : Obs.snapshot;
      (** observability counters incremented during this run
          (instructions, syscalls by name, rule firings, warnings by
          severity, ...).  Strategy counters — [taint.*],
          [harrier.shadow.*], [vm.blocks.*], [harrier.summary.*] —
          measure how the run was executed rather than what the guest
          did, and are excluded so stats (and the embedded trace
          profile) are byte-identical across execution strategies;
          read them through {!Obs.diff} directly when profiling. *)
  hot_blocks : (int * int * int) list;
      (** top-10 hottest application basic blocks as
          [(pid, leader, count)], deterministic ordering — also
          embedded into the trace as ["hot_block"] lines so
          [hth_trace profile] reproduces the live numbers offline *)
  tier : tier_counts;  (** per-tier block execution counts *)
}

(** Supervisor resource budgets for one session.  Every budget degrades
    gracefully: trips surface in {!result.degraded} (and through
    over-tainting possibly extra warnings) — they never abort the
    session. *)
type budgets = {
  b_ticks : int option;  (** instruction budget; caps [setup.max_ticks] *)
  b_wm_facts : int option;  (** Secpert working-memory fact budget *)
  b_shadow_pages : int option;  (** Harrier shadow pages per process *)
  b_warnings : int option;  (** stored-warning cap (verdict stays exact) *)
}

(** All budgets off (unbounded). *)
val no_budgets : budgets

(** [parse_budgets specs] folds repeated [--budget KEY=N] arguments —
    keys [ticks], [wm], [shadow-pages], [warnings]; [N] a positive
    int — over {!no_budgets}. *)
val parse_budgets : string list -> (budgets, string) Stdlib.result

type t

(** [create ()] compiles the shared artifacts once.

    [monitor_config] tunes Harrier (ablations turn dataflow /
    frequency / short-circuiting off); [trust], [thresholds] and
    [auto_kill] configure every Secpert instance the engine builds;
    [policy] selects the native rules or the textual CLIPS policy
    (parsed here, once).

    [keep_events] (default [true]): when [false], sessions do not
    accumulate their event stream in memory ([result.events] is [[]]) —
    for long corpus runs where only warnings and verdicts matter.

    [share_taint_space] (default [false]): when [true], every session
    interns tag sets into one shared space instead of a fresh one —
    faster on a corpus, but per-run [taint.*] counters become
    warm-dependent and are omitted from traces.

    [mem_pool_cap] (default 16) bounds the guest address-space buffers
    (1 MiB each) recycled between sessions; [0] disables pooling —
    right for single-use engines, where retaining buffers only delays
    their collection. *)
val create :
  ?monitor_config:Harrier.Monitor.config ->
  ?trust:Secpert.Trust.t ->
  ?thresholds:Secpert.Context.thresholds ->
  ?auto_kill:Secpert.Severity.t ->
  ?policy:Secpert.System.policy ->
  ?keep_events:bool ->
  ?share_taint_space:bool ->
  ?mem_pool_cap:int ->
  unit ->
  t

(** [fork engine] is a worker's view of the same engine: it shares the
    compiled policy, trust database, configuration and a snapshot of
    the linked-image cache (linked images are immutable, so workers
    mapping the same text arrays also share their decoded-block tables
    and compiled-instruction slots) but owns fresh mutable pools —
    taint-space pool, guest memory pool, and its own shared taint
    space when the parent enabled one.  A fork is safe to use from
    another domain concurrently with the parent and with other forks,
    and runs sessions byte-identically to the parent (program sets the
    snapshot misses are re-linked deterministically, outside per-run
    counter snapshots). *)
val fork : t -> t

(** [run_outcome engine setup] executes one session against the
    engine's shared artifacts and isolates every session-path failure
    as a typed {!Error.t}: load failures, policy installation errors
    and escaped exceptions become [Error] values instead of aborting
    the process.  [budgets] bounds the run's resources; [fault]
    injects deterministic syscall faults.  Each call increments
    [session.outcome.<kind>].

    [trace] scopes a sink to this session: the engine installs it
    before the first trace line, and flushes + removes it on every exit
    path (including session-path failures, so a crashed run's partial
    trace still reaches the destination).  Without [trace] the ambient
    {!Obs.Trace} sink — whatever the caller installed — is used.

    Reusing the engine across calls reuses its compiled policy and
    linked-image cache (counted under [engine.images.hits]/[.misses],
    outside per-run stats); results are identical to cold runs. *)
val run_outcome :
  t ->
  ?budgets:budgets ->
  ?fault:Osim.Fault.plan ->
  ?trace:Obs.Trace.target ->
  setup ->
  (result, Error.t) Stdlib.result

(** [run engine setup] is {!run_outcome} for callers that treat failure
    as exceptional.
    @raise Error.Error_exn on any session-path failure. *)
val run :
  t ->
  ?budgets:budgets ->
  ?fault:Osim.Fault.plan ->
  ?trace:Obs.Trace.target ->
  setup ->
  result

(** [run_unmonitored setup] executes with a null monitor — the baseline
    for the Section 9 performance comparison.  Shares the engine path's
    world-boot and spawn wiring, minus monitor and policy.
    @raise Error.Error_exn if the main program cannot be loaded. *)
val run_unmonitored : setup -> Osim.Kernel.report
