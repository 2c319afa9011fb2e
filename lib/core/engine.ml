(* The session engine: compile-once shared artifacts plus per-session
   world construction.

   An [Engine.t] holds everything about running sessions that does not
   depend on a particular run: the monitor configuration, the trust
   database and policy thresholds, the policy compiled once (for the
   textual CLIPS policy that is the parsed rule forms), a cache of
   linked binary images keyed by program set, and — optionally — a
   shared taint space.  [run] then builds only the genuinely per-run
   state: file system, network, kernel, monitor, Secpert instance.

   Per-run observability contract: everything the engine caches is
   resolved {e before} the run's counter snapshot is taken, so cache
   hits and misses never show up in [result.stats] or in the trace's
   embedded "counter" lines — a session run through a warm engine emits
   a byte-identical trace to a cold one. *)

type setup = {
  programs : Binary.Image.t list;
  files : (string * string) list;
  hosts : (string * int) list;
  servers : (string * int * Osim.Net.actor) list;
  incoming : (int * Osim.Net.actor) list;
  user_input : string list;
  main : string;
  argv : string list;
  env : string list;
  max_ticks : int;
}

let localhost_ip = 0x0100007F

let setup ?(programs = []) ?(files = []) ?(hosts = []) ?(servers = [])
    ?(incoming = []) ?(user_input = []) ?argv ?(env = [])
    ?(max_ticks = 2_000_000) ~main () =
  let argv = match argv with Some a -> a | None -> [ main ] in
  { programs; files; hosts; servers; incoming; user_input; main; argv; env;
    max_ticks }

(* Per-tier block execution counts for one run: how many basic-block
   executions were interpreted, how many ran as compiled bodies, how
   many of those applied a fused taint summary, and how many
   deoptimized back to interpretation. *)
type tier_counts = {
  tc_interpreted : int;
  tc_compiled : int;
  tc_summarized : int;
  tc_deopt : int;
}

let no_tier_counts =
  { tc_interpreted = 0; tc_compiled = 0; tc_summarized = 0; tc_deopt = 0 }

type result = {
  os_report : Osim.Kernel.report;
  events : Harrier.Events.t list;
  warnings : Secpert.Warning.t list;
  distinct : Secpert.Warning.t list;
  max_severity : Secpert.Severity.t option;
  event_count : int;
  degraded : string list;
  stats : Obs.snapshot;
  hot_blocks : (int * int * int) list;
  tier : tier_counts;
}

(* ------------------------------------------------------------------ *)
(* Supervisor budgets                                                  *)

type budgets = {
  b_ticks : int option;
  b_wm_facts : int option;
  b_shadow_pages : int option;
  b_warnings : int option;
}

let no_budgets =
  { b_ticks = None; b_wm_facts = None; b_shadow_pages = None;
    b_warnings = None }

let budget_keys = "ticks, wm, shadow-pages, warnings"

let apply_budget b spec =
  match String.index_opt spec '=' with
  | None -> Error (Fmt.str "budget %S: expected KEY=N (keys: %s)" spec
                     budget_keys)
  | Some eq ->
    let key = String.sub spec 0 eq in
    let v = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    (match int_of_string_opt v with
     | Some n when n >= 1 ->
       (match key with
        | "ticks" -> Ok { b with b_ticks = Some n }
        | "wm" -> Ok { b with b_wm_facts = Some n }
        | "shadow-pages" -> Ok { b with b_shadow_pages = Some n }
        | "warnings" -> Ok { b with b_warnings = Some n }
        | k ->
          Error (Fmt.str "budget %S: unknown key %S (keys: %s)" spec k
                   budget_keys))
     | Some _ | None ->
       Error (Fmt.str "budget %S: %S must be a positive int" spec v))

let parse_budgets specs =
  List.fold_left
    (fun acc spec -> Result.bind acc (fun b -> apply_budget b spec))
    (Ok no_budgets) specs

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)

type t = {
  e_monitor_config : Harrier.Monitor.config;
  e_trust : Secpert.Trust.t option;
  e_thresholds : Secpert.Context.thresholds option;
  e_auto_kill : Secpert.Severity.t option;
  e_compiled : Secpert.System.compiled;
  e_keep_events : bool;
  e_shared_space : Taint.Space.t option;
      (* [Some sp]: every session interns into [sp] — faster on a
         corpus, but the per-run [taint.*] cache counters then depend
         on what ran before, so they are left out of traces.  [None]:
         a fresh space per session, byte-reproducible. *)
  mutable e_images :
    (Binary.Image.t list * string * Binary.Image.t list) list;
      (* (programs, main) -> pre-linked image closure for main.  Keyed
         by physical equality of the program list: setups built once
         and re-run (the corpus pattern) hit; rebuilt setups just miss
         and re-link. *)
  mutable e_space_pool : Taint.Space.t list;
      (* recycled per-session taint spaces (fresh-space mode only).
         [Taint.Space.reset] restores the freshly-created state — same
         interning decisions, same cache counters — so a pooled space
         is observationally a new one, minus the arena allocation. *)
  e_mem_pool : Vm.Machine.mem_pool;
      (* recycled 1 MiB guest address spaces: each run's kernel draws
         machines from this pool and [Osim.Kernel.recycle] returns them
         at tear-down.  Buffers are zeroed or overwritten on reuse, so
         guest behaviour — and therefore every counter and trace line —
         is identical to fresh allocation. *)
  e_mem_pool_cap : int;  (* remembered so [fork] can size worker pools *)
}

let space_pool_cap = 4

let create ?monitor_config ?trust ?thresholds ?auto_kill
    ?(policy = Secpert.System.Native) ?(keep_events = true)
    ?(share_taint_space = false) ?(mem_pool_cap = 16) () =
  { e_monitor_config =
      Option.value monitor_config ~default:Harrier.Monitor.default_config;
    e_trust = trust;
    e_thresholds = thresholds;
    e_auto_kill = auto_kill;
    e_compiled = Secpert.System.compile policy;
    e_keep_events = keep_events;
    e_shared_space =
      (if share_taint_space then Some (Taint.Space.create ()) else None);
    e_images = [];
    e_space_pool = [];
    e_mem_pool = Vm.Machine.mem_pool ~cap:mem_pool_cap ();
    e_mem_pool_cap = mem_pool_cap }

(* A worker's view of the same engine.  The shared artifacts — compiled
   policy (for CLIPS, the parsed rule forms as finished values), trust
   database, thresholds, monitor configuration — are immutable after
   [create] and safe to read from any domain; everything mutable (the
   linked-image cache, the taint-space pool, the guest memory pool, the
   shared taint space when enabled) is per-fork, so a fork is safe to
   drive from another domain concurrently with its parent and with
   other forks.  Each fork re-links images on first sight of a program
   set: linking is deterministic and happens outside per-run counter
   snapshots, so a session run through a fork is byte-identical to one
   run through the parent. *)
let fork eng =
  { eng with
    (* the linked-image cache is carried over: linked images are
       immutable once built, so workers sharing them is safe — and it
       means every worker maps the same text arrays, whose decoded
       block tables and compiled-insn slots are shared fleet-wide *)
    e_space_pool = [];
    e_mem_pool = Vm.Machine.mem_pool ~cap:eng.e_mem_pool_cap ();
    e_mem_pool_cap = eng.e_mem_pool_cap;
    e_shared_space =
      Option.map (fun _ -> Taint.Space.create ()) eng.e_shared_space }

(* Fresh-space mode recycles arenas through the engine's pool: a reset
   space behaves exactly like [Taint.Space.create ()] but skips the
   arena allocation, which dominates small-session setup cost.  Tag
   sets handed out by an earlier run ([result.events]) stay valid for
   read-only use after the space is recycled. *)
let acquire_space eng =
  match eng.e_shared_space with
  | Some sp -> sp
  | None ->
    (match eng.e_space_pool with
     | sp :: rest ->
       eng.e_space_pool <- rest;
       Taint.Space.reset sp;
       sp
     | [] -> Taint.Space.create ())

let release_space eng sp =
  match eng.e_shared_space with
  | Some _ -> ()
  | None ->
    if List.length eng.e_space_pool < space_pool_cap then
      eng.e_space_pool <- sp :: eng.e_space_pool

let c_img_hits = Obs.Counter.make "engine.images.hits"
let c_img_misses = Obs.Counter.make "engine.images.misses"

(* Resolve the pre-linked image closure for [s.main], from the cache if
   this engine has seen the program set before.  [None] when the main
   program is not resolvable — the spawn path then reports the real
   loader error.  Called before the run's counter snapshot, so neither
   the cache counters nor the linking work appear in per-run stats. *)
let images_for eng (s : setup) =
  let rec find = function
    | [] -> None
    | (progs, main, imgs) :: rest ->
      if progs == s.programs && String.equal main s.main then Some imgs
      else find rest
  in
  match find eng.e_images with
  | Some imgs ->
    Obs.Counter.incr c_img_hits;
    Some imgs
  | None ->
    (match Osim.Kernel.link_closure s.programs s.main with
     | Error _ -> None
     | Ok imgs ->
       Obs.Counter.incr c_img_misses;
       eng.e_images <- (s.programs, s.main, imgs) :: eng.e_images;
       Some imgs)

(* ------------------------------------------------------------------ *)
(* Per-session world construction                                      *)

(* Per-phase wall-clock histograms (stats only — never trace data). *)
let h_build = Obs.Histogram.make "session.phase.build"
let h_spawn = Obs.Histogram.make "session.phase.spawn"
let h_run = Obs.Histogram.make "session.phase.run"

let phase name h f =
  if Obs.Trace.enabled () then Obs.Trace.emit "phase" [ "name", Obs.Str name ];
  Obs.Span.time h f

let build_world s =
  let fs = Osim.Fs.create () in
  List.iter (fun img -> Osim.Fs.install_image fs img) s.programs;
  List.iter (fun (path, data) -> Osim.Fs.install fs path data) s.files;
  let net = Osim.Net.create () in
  Osim.Net.add_host net "LocalHost" localhost_ip;
  List.iter (fun (name, ip) -> Osim.Net.add_host net name ip) s.hosts;
  (* the guest libc resolves names against this database *)
  Osim.Fs.install fs "/etc/hosts.db" (Osim.Net.hosts_db net);
  List.iter
    (fun (host, port, actor) -> Osim.Net.add_server net ~host ~port actor)
    s.servers;
  List.iter
    (fun (port, actor) -> Osim.Net.add_incoming net ~port actor)
    s.incoming;
  fs, net

(* World boot and program spawn, shared between the monitored and
   unmonitored paths so their wiring cannot drift. *)
let boot ?fault ?mem_pool s =
  let fs, net = build_world s in
  Osim.Kernel.create ~fs ~net ~user_input:s.user_input ?fault ?mem_pool ()

let spawn_main ?images kernel s =
  match
    Osim.Kernel.spawn ~env:s.env ?images kernel ~path:s.main ~argv:s.argv
  with
  | Ok p -> Ok p
  | Error msg ->
    Stdlib.Error (Error.Load_failure { path = s.main; reason = msg })

(* Strategy counters measure {e how} the run was executed — taint-arena
   cache traffic, shadow fast-path hit rates, tier promotion/deopt
   activity — not what the guest did.  They legitimately differ between
   the tiered and the interpreted execution strategy (and, for
   [taint.*], with arena warmth), so they are kept out of both
   [result.stats] and the trace's embedded profile: those two surfaces
   are byte-deterministic across strategies.  Guest-behaviour counters
   ([vm.instructions], [vm.blocks], [vm.fetch_cache.*], [osim.*],
   events, policy) stay, and the tiered fast path replicates them
   exactly. *)
let strategy_counter n =
  List.exists
    (fun p -> String.starts_with ~prefix:p n)
    [ "taint."; "harrier.shadow."; "vm.blocks."; "harrier.summary." ]

(* One increment per session under [session.outcome.<kind>]:
   ok / degraded for completed runs, the {!Error.kind} otherwise. *)
let note_outcome kind =
  Obs.Counter.incr (Obs.Counter.labeled "session.outcome" kind)

let run_outcome_ambient eng ~budgets ~fault s =
  (* Shared-artifact resolution happens before the snapshot: cache
     traffic must not differ between a cold and a warm engine run, and
     space acquisition (pool reset) must not touch per-run counters. *)
  let images = images_for eng s in
  let space = acquire_space eng in
  Fun.protect ~finally:(fun () -> release_space eng space) @@ fun () ->
  let before = Obs.snapshot () in
  let fail e =
    note_outcome (Error.kind e);
    Stdlib.Error e
  in
  let mcfg =
    let base = eng.e_monitor_config in
    match budgets.b_shadow_pages with
    | None -> base
    | Some n -> { base with Harrier.Monitor.shadow_page_budget = Some n }
  in
  match
    phase "build" h_build (fun () ->
        let kernel = boot ~fault ~mem_pool:eng.e_mem_pool s in
        let monitor = Harrier.Monitor.attach ~config:mcfg ~space kernel in
        (* The event pipeline, in dispatch order: the trace sink first
           (each event's "flow" line must land at its pre-stamped step,
           before any policy "rule"/"warning" lines), then the optional
           accumulator, then metrics, then the policy. *)
        Harrier.Monitor.subscribe monitor ~name:"trace"
          Harrier.Monitor.trace_sink;
        let events_log = ref [] in
        if eng.e_keep_events then
          Harrier.Monitor.subscribe monitor ~name:"events" (fun e ->
              events_log := e :: !events_log;
              Osim.Kernel.Allow);
        Harrier.Monitor.subscribe monitor ~name:"metrics"
          Harrier.Monitor.metrics_sink;
        let secpert =
          try
            Secpert.System.create_from ?trust:eng.e_trust
              ?thresholds:eng.e_thresholds ?auto_kill:eng.e_auto_kill
              ?warning_cap:budgets.b_warnings ?wm_budget:budgets.b_wm_facts
              ~compiled:eng.e_compiled ()
          with Failure msg -> raise (Error.Error_exn (Error.Policy_error msg))
        in
        Secpert.System.attach secpert monitor;
        kernel, monitor, secpert, events_log)
  with
  | exception Error.Error_exn e -> fail e
  | exception e ->
    fail (Error.Crash { phase = "build"; exn = Printexc.to_string e })
  | kernel, monitor, secpert, events_log ->
    (* From here the kernel owns pooled address spaces: return them at
       tear-down on every exit path (the result only carries scalars,
       strings and tag sets — never machine memory).  The monitor's
       tier, taint and shadow counts are settled into Obs on every exit
       path too, so outside snapshot diffs and fleet shard exports see
       them all; the success path settles before its own snapshot. *)
    Fun.protect
      ~finally:(fun () ->
        Harrier.Monitor.settle monitor;
        Osim.Kernel.recycle kernel)
    @@ fun () ->
    (match phase "spawn" h_spawn (fun () -> spawn_main ?images kernel s) with
     | exception e ->
       fail (Error.Crash { phase = "spawn"; exn = Printexc.to_string e })
     | Error e -> fail e
     | Ok _ ->
       let max_ticks =
         match budgets.b_ticks with
         | Some n -> min s.max_ticks n
         | None -> s.max_ticks
       in
       (match phase "run" h_run (fun () -> Osim.Kernel.run kernel ~max_ticks)
        with
        | exception e ->
          fail (Error.Crash { phase = "run"; exn = Printexc.to_string e })
        | os_report ->
          (* A run that consumed its whole tick budget with processes
             still live was truncated, not completed: a dormant program
             whose trigger never arrived within the budget must come
             back degraded, never silently "clean and done". *)
          let live =
            List.filter
              (fun (_, _, st) ->
                match (st : Osim.Process.run_state) with
                | Exited _ | Killed _ -> false
                | Runnable | Sleeping _ | Waiting_io -> true)
              os_report.Osim.Kernel.rep_final
          in
          let truncated =
            if os_report.Osim.Kernel.rep_ticks >= max_ticks && live <> []
            then
              [ Fmt.str
                  "tick budget: run truncated at %d ticks with %d live \
                   process(es) — verdict covers the observed prefix only"
                  os_report.Osim.Kernel.rep_ticks (List.length live) ]
            else []
          in
          let degraded =
            Harrier.Monitor.degraded monitor
            @ Secpert.System.degraded secpert
            @ truncated
          in
          note_outcome (if degraded = [] then "ok" else "degraded");
          Harrier.Monitor.settle monitor;
          let stats_raw = Obs.diff ~before ~after:(Obs.snapshot ()) in
          let stats =
            List.filter (fun (n, _) -> not (strategy_counter n)) stats_raw
          in
          let tier =
            let compiled, summarized, deopt =
              Harrier.Monitor.tier_stats monitor
            in
            let blocks_total =
              Option.value (List.assoc_opt "vm.blocks" stats_raw) ~default:0
            in
            { tc_interpreted = max 0 (blocks_total - compiled);
              tc_compiled = compiled; tc_summarized = summarized;
              tc_deopt = deopt }
          in
          let hot_blocks = Harrier.Monitor.hot_blocks monitor ~limit:10 in
          (* Embed the per-run profile in the trace so offline analysis
             ([hth_trace profile]) reproduces the live [--stats] numbers
             from the file alone. *)
          if Obs.Trace.enabled () then begin
            List.iter
              (fun (n, v) ->
                Obs.Trace.emit "counter"
                  [ "name", Obs.Str n; "value", Obs.Int v ])
              stats;
            List.iter
              (fun (pid, addr, count) ->
                Obs.Trace.emit "hot_block"
                  [ "pid", Obs.Int pid; "addr", Obs.Int addr;
                    "count", Obs.Int count ])
              hot_blocks
          end;
          Ok
            { os_report;
              events = List.rev !events_log;
              warnings = Secpert.System.warnings secpert;
              distinct = Secpert.System.distinct_warnings secpert;
              max_severity = Secpert.System.max_severity secpert;
              event_count = Harrier.Monitor.event_count monitor;
              degraded;
              stats;
              hot_blocks;
              tier }))

(* [?trace] scopes a sink to this one session: installed before the
   first "phase" line, flushed and removed on every exit path.  Without
   it the ambient sink (whatever the caller installed) is used, so the
   existing golden-trace paths are unchanged. *)
let run_outcome eng ?(budgets = no_budgets) ?(fault = Osim.Fault.none) ?trace s
    =
  match trace with
  | None -> run_outcome_ambient eng ~budgets ~fault s
  | Some target ->
    Obs.Trace.install target;
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        run_outcome_ambient eng ~budgets ~fault s)

let run eng ?budgets ?fault ?trace s =
  match run_outcome eng ?budgets ?fault ?trace s with
  | Ok r -> r
  | Error e -> raise (Error.Error_exn e)

let run_unmonitored s =
  let kernel = boot s in
  (match spawn_main kernel s with
   | Ok _ -> ()
   | Error e -> raise (Error.Error_exn e));
  Osim.Kernel.run kernel ~max_ticks:s.max_ticks
