(* Per-layer probes: time calls into each layer's public functions from
   outside, over a fixed sample of a workload's own inputs, and read the
   layers' counters from [Obs.snapshot] diffs.  Nothing here adds
   tracing inside the program. *)

open Pb_util

type item = {
  setup : Hth.Engine.setup;
  policy : Secpert.System.policy;
  fault : Osim.Fault.plan;
}

(* Session phases as the engine records them, under the monotonic clock
   the benchmark installs at start-up. *)
let h_build = Obs.Histogram.make "session.phase.build"
let h_spawn = Obs.Histogram.make "session.phase.spawn"
let h_run = Obs.Histogram.make "session.phase.run"

let timed name ~rid f =
  let t0 = now () in
  let v = Span.with_ ~rid name f in
  v, now () -. t0

(* Timings take the fastest of [repeats] runs: the least disturbed
   reading of a deterministic operation. *)
let repeats = 3

let best name ~rid f =
  let v, t = timed name ~rid f in
  let t = ref t in
  for _ = 2 to repeats do t := Float.min !t (snd (timed name ~rid f)) done;
  v, !t

let ok_or_fail what = function
  | Ok r -> r
  | Error e -> failwith (what ^ ": " ^ Hth.Error.to_string e)

(* [Engine.create] wall time in ms, median of [n] creations. *)
let engine_create_ms policy =
  median
    (Array.init 5 (fun _ ->
         let t0 = now () in
         ignore (Span.with_ "core.engine_create" (fun () -> Hth.Engine.create ~policy ()));
         (now () -. t0) *. 1000.))

type acc = {
  mutable n : int;
  mutable ticks : int;
  mutable events : int;
  mutable t_link : float;
  mutable t_full : float;  (* warm, full tiered monitoring *)
  mutable t_native : float;  (* Engine.run_unmonitored *)
  mutable t_tier_off : float;
  mutable t_no_dataflow : float;
  mutable t_trace_buf : float;
  mutable t_replay_native : float;
  mutable t_replay_clips : float;
  mutable t_seal : float;
  mutable t_append : float;
  mutable tc_summarized : int;
  mutable tc_blocks : int;
}

let counters = Hashtbl.create 64

let add_counters before after =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace counters k
        (v + try Hashtbl.find counters k with Not_found -> 0))
    (Obs.diff ~before ~after)

let counter k = try Hashtbl.find counters k with Not_found -> 0

(* [probe ~cold ?store_dir items] runs every layer variant over
   [items].  [cold]: the counted run uses a single-use engine per
   session (what one [hth_run run] does); otherwise one warm shared
   engine per policy (what the server and hot loop do).  [store_dir]:
   also seal each session's trace into a segment and append it to a
   warehouse there. *)
let probe ~cold ?store_dir items =
  Hashtbl.reset counters;
  let mk ?(tier = true) ?(dataflow = true) ?(keep_events = false) policy =
    Hth.Engine.create ~policy ~keep_events
      ~monitor_config:
        { Harrier.Monitor.default_config with tier; track_dataflow = dataflow }
      ()
  in
  let full_native = mk ~keep_events:true Secpert.System.Native in
  let full_clips = mk ~keep_events:true Secpert.System.Clips in
  let plain_native = mk Secpert.System.Native in
  let plain_clips = mk Secpert.System.Clips in
  let tier_off = mk ~tier:false Secpert.System.Native in
  let no_dataflow = mk ~tier:false ~dataflow:false Secpert.System.Native in
  let full it = match it.policy with Secpert.System.Clips -> full_clips | Native -> full_native in
  let plain it = match it.policy with Secpert.System.Clips -> plain_clips | Native -> plain_native in
  let compiled_native = Secpert.System.compile Secpert.System.Native in
  let compiled_clips = Secpert.System.compile Secpert.System.Clips in
  (* warm every engine on every program set: warm timings exclude the
     first link of each image closure *)
  List.iter
    (fun it ->
      List.iter
        (fun e -> ignore (Hth.Engine.run_outcome e ~fault:it.fault it.setup))
        [ full it; plain it; tier_off; no_dataflow ])
    items;
  let wh =
    Option.map
      (fun dir ->
        rm_rf dir;
        ok_or_fail "warehouse" (Store.Warehouse.open_ dir))
      store_dir
  in
  let a =
    { n = 0; ticks = 0; events = 0; t_link = 0.; t_full = 0.; t_native = 0.;
      t_tier_off = 0.; t_no_dataflow = 0.; t_trace_buf = 0.;
      t_replay_native = 0.; t_replay_clips = 0.; t_seal = 0.; t_append = 0.;
      tc_summarized = 0; tc_blocks = 0 }
  in
  List.iter Obs.Histogram.reset [ h_build; h_spawn; h_run ];
  List.iteri
    (fun rid it ->
      Span.with_ ~rid "probe.session" @@ fun () ->
      let _, t = best "osim.link" ~rid (fun () ->
          Osim.Kernel.link_closure it.setup.programs it.setup.main)
      in
      a.t_link <- a.t_link +. t;
      (* the counted run: its counter diff feeds every count below *)
      let before = Obs.snapshot () in
      let counted =
        if cold then
          Span.with_ ~rid "core.session_cold" (fun () ->
              Hth.Session.run_outcome ~policy:it.policy ~fault:it.fault it.setup)
        else
          Span.with_ ~rid "core.session_warm" (fun () ->
              Hth.Engine.run_outcome (plain it) ~fault:it.fault it.setup)
      in
      add_counters before (Obs.snapshot ());
      let r = ok_or_fail "session" counted in
      a.tc_summarized <- a.tc_summarized + r.tier.tc_summarized;
      a.tc_blocks <- a.tc_blocks + r.tier.tc_interpreted + r.tier.tc_compiled;
      a.n <- a.n + 1;
      let run ?(trace = fun () -> None) name e () =
        best name ~rid (fun () ->
            ok_or_fail name
              (Hth.Engine.run_outcome e ~fault:it.fault ?trace:(trace ()) it.setup))
      in
      let _, t_full = run "harrier.full" (plain it) () in
      a.t_full <- a.t_full +. t_full;
      let rep, t = best "vm.unmonitored" ~rid (fun () -> Hth.Engine.run_unmonitored it.setup) in
      a.t_native <- a.t_native +. t;
      a.ticks <- a.ticks + rep.Osim.Kernel.rep_ticks;
      let _, t = run "harrier.tier_off" tier_off () in
      a.t_tier_off <- a.t_tier_off +. t;
      let _, t = run "harrier.no_dataflow" no_dataflow () in
      a.t_no_dataflow <- a.t_no_dataflow +. t;
      let _, t =
        run "obs.trace_buffer" (plain it)
          ~trace:(fun () -> Some (Obs.Trace.buffer_target (Buffer.create 65536))) ()
      in
      a.t_trace_buf <- a.t_trace_buf +. t;
      (* Secpert alone: replay the session's recorded events *)
      let evr, _ = run "harrier.keep_events" (full it) () in
      a.events <- a.events + List.length evr.events;
      let replay name compiled =
        snd
          (best name ~rid (fun () ->
               let sys = Secpert.System.create_from ~compiled () in
               List.iter (fun e -> ignore (Secpert.System.handle_event sys e)) evr.events))
      in
      a.t_replay_native <- a.t_replay_native +. replay "secpert.replay_native" compiled_native;
      a.t_replay_clips <- a.t_replay_clips +. replay "secpert.replay_clips" compiled_clips;
      Option.iter
        (fun wh ->
          let w = Store.Segment.Writer.create () in
          ignore
            (timed "store.traced_run" ~rid (fun () ->
                 Hth.Engine.run_outcome (plain it) ~fault:it.fault
                   ~trace:(Store.Segment.Writer.target w) it.setup));
          let sealed, t = timed "store.seal" ~rid (fun () -> Store.Segment.Writer.seal w) in
          a.t_seal <- a.t_seal +. t;
          let entry =
            { Store.Manifest.e_run = Printf.sprintf "probe%d" rid;
              e_scenario = it.setup.main; e_policy = "native"; e_seed = None;
              e_fault = None; e_verdict = Hth.Report.verdict_label (Hth.Report.verdict r);
              e_expected = ""; e_match = true; e_warnings = List.length r.warnings;
              e_distinct = List.length r.distinct; e_degraded = false; e_steps = 0;
              e_raw_bytes = 0; e_framed_bytes = 0;
              e_digest = Store.Manifest.digest sealed.s_index.ix_counters;
              e_segment = "" }
          in
          let _, t = timed "store.append" ~rid (fun () -> Store.Warehouse.append wh ~entry ~sealed) in
          a.t_append <- a.t_append +. t)
        wh)
    items;
  Option.iter Store.Warehouse.close wh;
  Option.iter rm_rf store_dir;
  let per_session x = if a.n = 0 then 0. else x /. float_of_int a.n in
  let ms x = per_session x *. 1000. in
  let ns_per_insn x = if a.ticks = 0 then 0. else x *. 1e9 /. float_of_int a.ticks in
  let us_per_event x = if a.events = 0 then 0. else x *. 1e6 /. float_of_int a.events in
  let phase_ms h =
    let c = Obs.Histogram.count h in
    if c = 0 then 0. else Obs.Histogram.sum h *. 1000. /. float_of_int c
  in
  let hit_ratio base = ratio (counter (base ^ ".hits")) (counter (base ^ ".hits") + counter (base ^ ".misses")) in
  let count_per_session k = per_session (float_of_int (counter k)) in
  let metrics =
    [ "core.build_ms", phase_ms h_build;
      "core.spawn_ms", phase_ms h_spawn;
      "core.run_ms", phase_ms h_run;
      "core.images.hit_ratio", hit_ratio "engine.images";
      "osim.link_ms", ms a.t_link;
      "osim.syscalls_per_session", count_per_session "osim.syscalls";
      "osim.faults.injected", float_of_int (counter "osim.faults.injected");
      "vm.native_ns_per_insn", ns_per_insn a.t_native;
      "vm.fetch_cache.hit_ratio", hit_ratio "vm.fetch_cache";
      "vm.blocks.promoted", count_per_session "vm.blocks.promoted";
      "vm.blocks.deopt", count_per_session "vm.blocks.deopt";
      "harrier.monitor_ns_per_insn", ns_per_insn (a.t_full -. a.t_native);
      "harrier.dataflow_interp_ns_per_insn", ns_per_insn (a.t_tier_off -. a.t_no_dataflow);
      "harrier.summary.applied", count_per_session "harrier.summary.applied";
      "harrier.events", count_per_session "harrier.events";
      "tier.summary_coverage", ratio a.tc_summarized a.tc_blocks;
      "taint.union_memo.hit_ratio", hit_ratio "taint.union_memo";
      "taint.intern.hit_ratio", hit_ratio "taint.intern";
      "secpert.native_us_per_event", us_per_event a.t_replay_native;
      "secpert.clips_us_per_event", us_per_event a.t_replay_clips;
      "expert.firings", count_per_session "expert.firings";
      "obs.trace_emit_ms", ms (a.t_trace_buf -. a.t_full) ]
    @ (if store_dir = None then []
       else [ "store.seal_ms", ms a.t_seal; "store.append_ms", ms a.t_append ])
  in
  let base k = Printf.sprintf "%s %d/%d" k (counter (k ^ ".hits")) (counter (k ^ ".hits") + counter (k ^ ".misses")) in
  let notes =
    [ Printf.sprintf
        "probe: %d sessions (%s engine), %d guest insns, %d events, \
         summarized %d/%d block executions"
        a.n (if cold then "single-use" else "warm shared") a.ticks a.events
        a.tc_summarized a.tc_blocks;
      "probe hits/lookups: "
      ^ String.concat ", "
          (List.map base [ "engine.images"; "vm.fetch_cache"; "taint.union_memo"; "taint.intern" ]) ]
  in
  metrics, notes
