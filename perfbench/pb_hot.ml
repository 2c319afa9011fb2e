(* hot_loop: in-process Section 9 sessions (Guest.Perf_workload) through
   one warm Hth.Engine with the default tiered configuration, closed
   loop. *)

open Pb_util

let session engine k =
  let sc = (Lazy.force Pb_inputs.hot_scenarios).(k) in
  Hth.Engine.run_outcome engine sc.Guest.Scenario.sc_setup

(* The interpreter's warnings, and the unmonitored run's ticks, final
   process states and console output. *)
let check k = function
  | Error _ -> false, 0
  | Ok (r : Hth.Engine.result) ->
    let ref_, warnings = Pb_inputs.hot_reference k in
    let rep = r.os_report in
    ( List.map Secpert.Warning.to_string r.warnings = warnings
      && rep.rep_ticks = ref_.Osim.Kernel.rep_ticks
      && rep.rep_final = ref_.rep_final
      && String.equal rep.rep_console ref_.rep_console,
      rep.rep_ticks )

let loop ?interleave ~seconds engine st =
  closed_loop ?interleave ~calibrate_every:2 ~seconds (fun _rid ->
      let k = (Pb_inputs.hot_draws st 1).(0) in
      ignore (Pb_inputs.hot_reference k);
      let t0 = now () in
      let res = Span.with_ "engine.run" (fun () -> session engine k) in
      let dt = now () -. t0 in
      let ok, ticks = Span.with_ "check" (fun () -> check k res) in
      ok, ticks, dt)

let run ~seed ~seconds ~trace =
  let st () = Pb_inputs.stream ~seed ~workload:"hot_loop" in
  let first = (Pb_inputs.hot_draws (st ()) 1).(0) in
  ignore (Lazy.force Pb_inputs.hot_scenarios);
  (* set-up: engine creation plus the first (cold-cache) session; only
     the first engine is kept, so the others do not inflate peak RSS *)
  let setup () =
    let t0 = now () in
    let e = Hth.Engine.create () in
    ignore (session e first);
    now () -. t0, e
  in
  let t_first, engine = setup () in
  let setup_s = median (Array.init 7 (fun i -> if i = 0 then t_first else fst (setup ()))) in
  if not trace then begin
    let s = loop ~seconds engine (st ()) in
    { attempted = s.ops; failed = s.fails; scaled = true;
      metrics =
        [ "setup_s", setup_s ] @ latency_metrics ~tail:(fun lat -> block_percentile lat 90. ~block:50) s
        @ [ "peak_rss_mb", vm_hwm_mb "self";
            "ok_ratio", ok_ratio ~attempted:s.ops ~failed:s.fails ];
      notes = [ Printf.sprintf "hot_loop: %d sessions, %d guest insns, %d failed" s.ops s.insns s.fails ] }
  end
  else begin
    let s = loop ~interleave:true ~seconds engine (st ()) in
    let split = by_parity s.lat in
    Span.enabled := true;
    let scs = Lazy.force Pb_inputs.hot_scenarios in
    let items =
      Array.to_list
        (Array.map
           (fun k ->
             { Pb_layers.setup = scs.(k).Guest.Scenario.sc_setup;
               policy = Secpert.System.Native; fault = Osim.Fault.none })
           (Pb_inputs.hot_draws (st ()) 3))
    in
    let layers, notes = Pb_layers.probe ~cold:false items in
    { attempted = s.ops; failed = s.fails; scaled = false;
      metrics =
        [ "core.engine_create_native_ms", Pb_layers.engine_create_ms Secpert.System.Native;
          "core.engine_create_clips_ms", Pb_layers.engine_create_ms Secpert.System.Clips;
          "trace.overhead_pct", overhead_pct split;
          "guest_mips", guest_mips s;
          "failed_ratio", ratio s.fails s.ops ]
        @ layers;
      notes =
        Printf.sprintf "hot_loop: %d sessions, %d failed" s.ops s.fails
        :: overhead_note split :: notes }
  end
