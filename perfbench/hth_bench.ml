(* hth_bench: the HTH benchmark.

     perfbench/run.sh --workload cold_run|hot_loop|serve_mixed \
       --seed N --seconds S --trace 0|1

   Runs one seeded workload against the built binaries and the public
   library API, checks every output, and prints as its last line one
   JSON object: {"correct","attempted","failed","metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones (a separate run over the same seeded inputs, with
   spans recorded around each layer call).  README.md defines every
   metric and the end-to-end metric each layer metric should move. *)

open Pb_util

(* name, unit — the order BENCHMARK.json lists them in *)
let end_to_end =
  [ "setup_s", "s";
    "latency_p50_ms", "ms";
    "latency_tail_ms", "ms";
    "max_rate_rps", "1/s";
    "peak_rss_mb", "MiB";
    "ok_ratio", "ratio" ]

let per_layer =
  [ "startup.exec_ms", "ms";
    "core.engine_create_native_ms", "ms";
    "core.engine_create_clips_ms", "ms";
    "core.build_ms", "ms";
    "core.spawn_ms", "ms";
    "core.run_ms", "ms";
    "core.images.hit_ratio", "ratio";
    "osim.link_ms", "ms";
    "osim.syscalls_per_session", "count";
    "osim.faults.injected", "count";
    "vm.native_ns_per_insn", "ns";
    "vm.fetch_cache.hit_ratio", "ratio";
    "vm.blocks.promoted", "count";
    "vm.blocks.deopt", "count";
    "guest_mips", "MIPS";
    "harrier.monitor_ns_per_insn", "ns";
    "harrier.dataflow_interp_ns_per_insn", "ns";
    "harrier.summary.applied", "count";
    "harrier.events", "count";
    "tier.summary_coverage", "ratio";
    "taint.union_memo.hit_ratio", "ratio";
    "taint.intern.hit_ratio", "ratio";
    "secpert.native_us_per_event", "us";
    "secpert.clips_us_per_event", "us";
    "expert.firings", "count";
    "obs.trace_emit_ms", "ms";
    "store.seal_ms", "ms";
    "store.append_ms", "ms";
    "store.framed_bytes_per_run", "B";
    "store.compression_ratio", "ratio";
    "store.load_ms", "ms";
    "store.query_ms", "ms";
    "store.profile_ms", "ms";
    "serve.server_p50_ms", "ms";
    "serve.server_p99_ms", "ms";
    "serve.client_overhead_ms", "ms";
    "serve.queue_wait_ms", "ms";
    "serve.query_p50_ms", "ms";
    "serve.p99_knee_rps", "1/s";
    "fleet.steals_per_100", "count";
    "fleet.parks_per_100", "count";
    "loadgen.lag_p99_ms", "ms";
    "trace.overhead_pct", "%";
    "host.calib_ms", "ms";
    "failed_ratio", "ratio" ]

let usage () =
  prerr_endline
    "usage: hth_bench --workload cold_run|hot_loop|serve_mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := Some (int_of n); go rest
    | "--seconds" :: n :: rest -> seconds := Some (int_of n); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some s, Some n, Some t when n > 0 -> w, s, n, t
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  let run =
    match workload with
    | "cold_run" -> Pb_cold.run
    | "hot_loop" -> Pb_hot.run
    | "serve_mixed" -> Pb_serve.run
    | _ -> usage ()
  in
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf "hth_bench: %s is not built\n" exe;
        exit 2
      end)
    [ Pb_cold.hth_run; Pb_serve.hth_serve ];
  rm_rf work_dir;
  mkdir_p work_dir;
  Obs.Span.set_clock now;
  (* stop every child, then drop the run's warehouses and sockets *)
  at_exit (fun () ->
      reap_all ();
      Array.iter
        (fun f -> if not (String.starts_with ~prefix:"spans-" f) then rm_rf (Filename.concat work_dir f))
        (try Sys.readdir work_dir with Sys_error _ -> [||]));
  let o =
    try run ~seed ~seconds:(float_of_int seconds) ~trace
    with e ->
      Printf.eprintf "hth_bench: %s: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  Calib.stop ();
  List.iter print_endline o.notes;
  Printf.printf "host kernel: median %.3f ms over %d samples (reference %.1f ms)\n"
    (Calib.median_s () *. 1000.) (Sample.count Calib.samples) (Calib.reference_s *. 1000.);
  let metrics =
    if trace then ("host.calib_ms", Calib.median_s () *. 1000.) :: o.metrics
    else if o.scaled then begin
      Printf.printf "as measured: %s\n"
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) o.metrics));
      normalize o.metrics
    end
    else o.metrics
  in
  if trace then begin
    let path =
      Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
    in
    Span.write_out path;
    Printf.printf "spans written to %s; self time per span:\n" path;
    List.iter
      (fun (name, n, total, self) ->
        Printf.printf "  %-32s n=%-6d total %10.3f ms  self %10.3f ms\n" name n
          (total *. 1000.) (self *. 1000.))
      (Span.self_times ())
  end;
  Printf.printf
    "meta: workload=%s seed=%d seconds=%d trace=%b source=%s nproc=%d ocaml=%s\n"
    workload seed seconds trace (source_id ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let table = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name metrics with
          | Some v -> v
          | None when trace -> 0.  (* the layer does no work in this workload *)
          | None -> failwith ("missing end-to-end metric " ^ name)
        in
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
          (json_float v) (json_string unit))
      table
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat "," metrics)
