(** Line-framed JSON job service over one shared, supervised fleet.

    A {!service} compiles both engines (native and clips policies)
    exactly once and owns a {!Supervisor.t}; any number of concurrent
    connections attach with {!serve_connection} and multiplex onto the
    same worker domains.

    Each input line is one flat JSON request (the {!Forensics.Jsonl}
    dialect): [{"scenario":NAME}] plus optional [id] (echoed), [policy]
    (["native"]|["clips"]), [seed] or [fault_plan] (deterministic fault
    injection, mutually exclusive), [budget] (["KEY=N,KEY=N"]), and
    [op] (["run"] default; ["health"], ["stats"], ["store_stats"] and
    ["store_query"] answer from the supervisor, the serve telemetry
    and the attached warehouse without occupying a fleet slot).  An
    [op:"store_query"] request carries [kind] (["query"] default, with
    filter fields [scenario]/[rule]/[severity]/[resource]/[verdict];
    ["profile"]; or ["diff"] with required [run]) plus an optional
    row [limit] (default 50), and is answered from manifests and
    segment indexes via {!Store.Fleet_query} — the fleet-forensics
    surface of [hth_trace fleet], served remotely.  Each request yields
    exactly one response line, emitted
    {e in that connection's input order} even though sessions run on
    the fleet in whatever order stealing produces.  Malformed lines
    become [{"status":"bad_request"}] responses at their position.

    Overload and shutdown policy (DESIGN.md §17): the per-connection
    in-flight window {e blocks the reader} — backpressure that cannot
    change response content — while the supervisor's global cap
    answers [{"status":"overloaded","retry":true}] and a draining
    service answers [{"status":"shutting_down","retry":false}].  Run
    responses are session-deterministic (byte-identical across runs
    and [--jobs] for a fixed per-connection script); overloaded lines,
    wall-clock [timeout] errors and health/stats telemetry are the
    documented nondeterministic exceptions.

    The transport is abstract ([input]/[output] closures), so the same
    loop serves stdin/stdout, a Unix socket (see bin/hth_serve), or an
    in-process test. *)

(** What a scenario name resolves to. *)
type target = {
  t_setup : Hth.Engine.setup;
  t_expected : string;  (** label echoed in responses *)
  t_matches : Hth.Report.verdict -> bool;
}

type resolver = string -> target option

type service

(** [create ~resolver ()] compiles the engines and starts the
    supervisor (watchdog included) and the collector thread.

    [jobs] sizes the fleet (default 1); [deadline] (seconds) is the
    wall-clock watchdog budget applied to every request (omit to run
    unsupervised); [max_inflight] (default 256) is the global
    admission cap shared by all connections; [window] (default 64)
    bounds each connection's in-flight requests by blocking its
    reader; [default_ticks] (default 0 = off) gives budget-less
    requests a deterministic tick budget so runaway-but-ticking guests
    fail long before the wall-clock deadline.

    [store] attaches a trace warehouse: every run request then records
    a sealed segment plus manifest entry (run id [scenario@seq], error
    outcomes included as [error:<kind>]), appended by the collector
    {e before} the response line is emitted — a response in hand means
    the run is already durable, so a SIGTERM-drained server leaves
    complete runs or no run, never a torn one.  The warehouse is the
    caller's to {!Store.Warehouse.close} after {!shutdown}. *)
val create :
  ?jobs:int ->
  ?deadline:float ->
  ?max_inflight:int ->
  ?window:int ->
  ?default_ticks:int ->
  ?store:Store.Warehouse.t ->
  resolver:resolver ->
  unit ->
  service

(** The service's supervisor — health snapshots for tests and front
    ends; don't drive its lifecycle directly ({!shutdown} does). *)
val supervisor : service -> Supervisor.t

(** Refuse new run requests from now on: subsequent submissions answer
    [shutting_down].  Health/stats still answer.  Idempotent. *)
val drain : service -> unit

(** Longest request line {!read_line} returns, in bytes, newline
    excluded. *)
val max_request_bytes : int

(** Raised by {!read_line} for a line longer than {!max_request_bytes}. *)
exception Line_too_long

(** [read_line ic] is the next request line of [ic] without its newline
    ([None] at end of input), like [In_channel.input_line] but bounded:
    a line longer than {!max_request_bytes} is read to its newline (or
    the end of input) without being kept, and then raises
    {!Line_too_long}; the next call reads the line after it. *)
val read_line : In_channel.t -> string option

(** [serve_connection svc ~input ~output ()] serves one connection
    until [input] returns [None], waits for the connection's admitted
    jobs to be answered, and returns the number of requests answered.
    An [input] that raises {!Line_too_long} (as {!read_line} does) has
    that line answered [bad_request] at its position; reading goes on.
    Safe to call from many threads concurrently — that {e is} the
    point.  [output] is called once per response line (no trailing
    newline), possibly from the collector thread, never concurrently
    with itself for one connection.  An [output] that raises marks the
    connection dead: remaining responses are dropped, the fleet and
    other connections are unaffected, and [serve_connection] still
    returns normally. *)
val serve_connection :
  service ->
  input:(unit -> string option) ->
  output:(string -> unit) ->
  unit ->
  int

(** Drain, wait for every admitted job to be answered, then tear down
    the supervisor, fleet and collector.  Call after the connection
    readers have finished. *)
val shutdown : service -> unit

(** [run ~resolver ~input ~output ()] is the whole single-transport
    lifecycle: {!create}, one {!serve_connection}, {!shutdown};
    returns the number of requests answered. *)
val run :
  ?jobs:int ->
  resolver:resolver ->
  input:(unit -> string option) ->
  output:(string -> unit) ->
  unit ->
  int
