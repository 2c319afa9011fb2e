(* cold_run: exec the built [hth_run run SCENARIO] one process at a time
   (closed loop, one client) over a seeded corpus draw. *)

open Pb_util

let hth_run = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "hth_run.exe"))

(* Wall ms of one [hth_run --version]: runtime start plus the eager
   corpus and libc build every exec pays before any analysis. *)
let version_exec_ms () =
  let t0 = now () in
  (match Span.with_ "startup.exec" (fun () -> exec_capture hth_run [ "--version" ]) with
   | 0, _ -> ()
   | _ -> failwith "hth_run --version failed");
  (now () -. t0) *. 1000.

let field_after prefix line =
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    Some (String.sub line n (String.length line - n))
  else None

(* The report [hth_run run] prints must carry the oracle's verdict,
   warning counts and tick count. *)
let check (r : Pb_inputs.req) status out =
  let x = Pb_inputs.expect r in
  let lines = String.split_on_char '\n' out in
  let find prefix = List.find_map (field_after prefix) lines in
  let exit_ok =
    match status with
    | 0 -> true
    | 1 -> r.fault_seed <> None  (* a fault may move the verdict *)
    | _ -> false
  in
  let verdict =
    x.x_verdict ^ if x.x_degraded then " (degraded)" else ""
  in
  let ok =
    x.x_ok && exit_ok
    && find "verdict: " = Some verdict
    && find "warnings: "
       = Some (Printf.sprintf "%d (%d distinct)" x.x_warnings x.x_distinct)
    && find "ticks: " = Some (string_of_int x.x_ticks)
  in
  ok, x.x_ticks

(* Peak resident set of one [hth_run] process, MiB.  wait4's ru_maxrss
   would also count the pages the child shared with this larger process
   before its exec, so poll the child's own VmHWM once it runs hth_run,
   until it exits. *)
let exec_peak_rss_mb r =
  let pid = spawn hth_run (Pb_inputs.cli_args r) in
  (* /proc files report size 0: read their first line *)
  let proc f = In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" pid f) input_line in
  let gone () =
    match proc "stat" with
    | st -> st.[String.rindex st ')' + 2] = 'Z'
    | exception (Sys_error _ | End_of_file | Not_found | Invalid_argument _) -> true
  in
  let running_hth () =
    match proc "comm" with
    | c -> String.trim c = Filename.basename hth_run
    | exception (Sys_error _ | End_of_file) -> false
  in
  let last = ref 0. in
  while not (gone ()) do
    if running_hth () then begin
      let v = vm_hwm_mb (string_of_int pid) in
      if v > 0. then last := v
    end;
    Unix.sleepf 0.0002
  done;
  ignore (waitpid_noeintr pid);
  !last

let loop ?interleave ~seconds st =
  closed_loop ?interleave ~calibrate_every:100 ~seconds (fun _rid ->
      let r = Pb_inputs.draw st in
      ignore (Pb_inputs.expect r);  (* oracle first, outside the exec span *)
      let t0 = now () in
      let status, out =
        Span.with_ "exec" (fun () -> exec_capture hth_run (Pb_inputs.cli_args r))
      in
      let dt = now () -. t0 in
      let ok, ticks = Span.with_ "check" (fun () -> check r status out) in
      ok, ticks, dt)

let run ~seed ~seconds ~trace =
  let st () = Pb_inputs.stream ~seed ~workload:"cold_run" in
  let version = Array.init 7 (fun _ -> version_exec_ms ()) in
  let setup_s = median version /. 1000. in
  if not trace then begin
    let s = loop ~seconds (st ()) in
    let rss = Array.map exec_peak_rss_mb (Pb_inputs.draws (st ()) 30) in
    { attempted = s.ops; failed = s.fails; scaled = false;
      metrics =
        [ "setup_s", setup_s ]
        @ latency_metrics ~tail:(fun lat -> block_percentile lat 99. ~block:500) s
        @ [ "peak_rss_mb", median rss;
            "ok_ratio", ok_ratio ~attempted:s.ops ~failed:s.fails ];
      notes = [ Printf.sprintf "cold_run: %d execs, %d failed" s.ops s.fails ] }
  end
  else begin
    let s = loop ~interleave:true ~seconds (st ()) in
    let split = by_parity s.lat in
    Span.enabled := true;
    let items =
      Array.to_list
        (Array.map
           (fun (r : Pb_inputs.req) ->
             { Pb_layers.setup = Pb_inputs.setup_of r; policy = Pb_inputs.policy_of r;
               fault = Pb_inputs.fault_of r })
           (Pb_inputs.draws (st ()) 120))
    in
    let layers, notes = Pb_layers.probe ~cold:true items in
    (* serve_mixed is not a gated workload (see README.md): its layers
       are measured here, over two reference servers and a short ladder *)
    let serve_metrics, serve_notes, _, _, s_attempted, s_failed =
      Pb_serve.layers ~seed ~servers:2 ~ladder_servers:2
    in
    let attempted = s.ops + s_attempted and failed = s.fails + s_failed in
    { attempted; failed; scaled = false;
      metrics =
        [ "startup.exec_ms", median version;
          "core.engine_create_native_ms", Pb_layers.engine_create_ms Secpert.System.Native;
          "core.engine_create_clips_ms", Pb_layers.engine_create_ms Secpert.System.Clips;
          "trace.overhead_pct", overhead_pct split;
          "guest_mips", guest_mips s;
          "failed_ratio", ratio failed attempted ]
        @ layers @ serve_metrics;
      notes =
        Printf.sprintf "cold_run: %d execs, %d failed" s.ops s.fails
        :: overhead_note split :: notes @ serve_notes }
  end
