type policy = Native | Clips

(* A policy prepared for installation into many engines.  For [Clips]
   this holds the parsed rule forms, so the textual policy is parsed
   once per engine-lifetime rather than once per session; for [Native]
   there is nothing to precompute (rule closures capture per-session
   context and are cheap to build). *)
type compiled = { c_policy : policy; c_forms : Expert.Clips.installer list }

let compile = function
  | Native -> { c_policy = Native; c_forms = [] }
  | Clips -> { c_policy = Clips; c_forms = Policy_clips.compile () }

type t = {
  engine : Expert.Engine.t;
  trust : Trust.t;
  policy : policy;
  auto_kill : Severity.t option;
  warning_cap : int;  (* max stored warnings (max_int = unbounded) *)
  wm_budget : int;  (* max working-memory facts (max_int = unbounded) *)
  mutable warnings : Warning.t list;  (* newest first; capped *)
  mutable fresh : Warning.t list;  (* warnings of the event in flight *)
  mutable count : int;  (* total raised, stored or not *)
  mutable max_sev : Severity.t option;  (* over every warning raised *)
  mutable dropped : int;  (* raised but not stored (cap) *)
  mutable wm_peak : int;
  mutable wm_tripped : bool;
  xfer : int ref;  (* per-instance transfer join-id counter *)
}

let c_warnings = Obs.Counter.make "secpert.warnings"
let c_dropped = Obs.Counter.make "secpert.warnings.dropped"

(* [secpert.warnings.<severity>] handles, resolved once per severity. *)
let c_severity =
  let c sev = Obs.Counter.labeled "secpert.warnings" (Severity.label sev) in
  let low = c Severity.Low and medium = c Severity.Medium
  and high = c Severity.High in
  function Severity.Low -> low | Medium -> medium | High -> high
let c_wm_trip = Obs.Counter.make "secpert.wm_budget.tripped"

let create_from ?(trust = Trust.default)
    ?(thresholds = Context.default_thresholds) ?auto_kill ?warning_cap
    ?wm_budget ~compiled () =
  let engine = Expert.Engine.create () in
  Facts.deftemplates engine;
  let cap = function Some n -> max 0 n | None -> max_int in
  let t =
    { engine; trust; policy = compiled.c_policy; auto_kill;
      warning_cap = cap warning_cap;
      wm_budget = cap wm_budget; warnings = []; fresh = []; count = 0;
      max_sev = None; dropped = 0; wm_peak = 0; wm_tripped = false;
      xfer = ref 0 }
  in
  let ctx =
    { Context.trust; thresholds;
      warn =
        (fun w ->
          (* attach the firing activation's matched facts as evidence —
             centrally, so both the native and the CLIPS policies get
             provenance without threading facts through every action *)
          let w =
            match Expert.Engine.current_activation engine with
            | Some (_rule, facts) ->
              Warning.with_facts w (List.map Evidence.of_fact facts)
            | None -> w
          in
          (* the verdict path (count, severity, the in-flight list the
             auto-kill decision reads) is exact regardless of the cap;
             only the stored transcript is bounded *)
          t.fresh <- w :: t.fresh;
          t.count <- t.count + 1;
          t.max_sev <-
            (match t.max_sev with
             | Some s when Severity.(s >= w.Warning.severity) -> t.max_sev
             | Some _ | None -> Some w.Warning.severity);
          if List.length t.warnings < t.warning_cap then
            t.warnings <- w :: t.warnings
          else begin
            t.dropped <- t.dropped + 1;
            Obs.Counter.incr c_dropped
          end;
          Obs.Counter.incr c_warnings;
          Obs.Counter.incr (c_severity w.Warning.severity);
          if Obs.Trace.enabled () then
            Obs.Trace.emit "warning" (Warning.to_fields w)) }
  in
  (match compiled.c_policy with
   | Native ->
     Policy_exec.register engine ctx;
     Policy_resource.register engine ctx;
     Policy_flow.register engine ctx
   | Clips -> Policy_clips.install_forms engine ctx compiled.c_forms);
  t

let create ?trust ?thresholds ?auto_kill ?warning_cap ?wm_budget
    ?(policy = Native) () =
  create_from ?trust ?thresholds ?auto_kill ?warning_cap ?wm_budget
    ~compiled:(compile policy) ()

let trust t = t.trust

let engine t = t.engine

let handle_event t event =
  t.fresh <- [];
  let facts =
    match t.policy with
    | Native -> [ Facts.assert_event ~xfer:t.xfer t.engine t.trust event ]
    | Clips -> Facts.assert_event_full ~xfer:t.xfer t.engine t.trust event
  in
  ignore (Expert.Engine.run t.engine);
  List.iter (Expert.Engine.retract t.engine) facts;
  let wm = List.length (Expert.Engine.facts t.engine) in
  if wm > t.wm_peak then t.wm_peak <- wm;
  if wm > t.wm_budget && not t.wm_tripped then begin
    t.wm_tripped <- true;
    Obs.Counter.incr c_wm_trip
  end;
  match t.auto_kill with
  | Some threshold
    when List.exists (fun w -> Severity.(w.Warning.severity >= threshold))
           t.fresh -> Osim.Kernel.Kill
  | Some _ | None -> Osim.Kernel.Allow

let attach t monitor =
  Harrier.Monitor.subscribe monitor ~name:"secpert" (handle_event t)

let warnings t = List.rev t.warnings

let replay ?trust ?thresholds ?policy events =
  let t = create ?trust ?thresholds ?policy () in
  List.iter (fun e -> ignore (handle_event t e)) events;
  warnings t

let distinct_warnings t = Warning.dedup (warnings t)

let warning_count t = t.count

let max_severity t = t.max_sev

let degraded t =
  let reasons = [] in
  let reasons =
    if t.wm_tripped then
      Fmt.str
        "working-memory budget exceeded (peak %d facts > %d); verdicts \
         computed, WM growth flagged"
        t.wm_peak t.wm_budget
      :: reasons
    else reasons
  in
  if t.dropped > 0 then
    Fmt.str
      "warning cap %d reached; %d later warning(s) dropped from the \
       transcript (counts and verdict remain exact)"
      t.warning_cap t.dropped
    :: reasons
  else reasons
