(* serve_mixed: the built [hth_serve --socket --jobs 2 --store DIR] (a
   fresh warehouse per server) driven by one single-threaded select-loop
   client over two connections:

   - ingest: open loop at a fixed rate, seeded corpus draw with 20%
     CLIPS policy and 20% seeded faults, each request timed from the
     moment it was due;
   - analyst: store_query reads, one per 250 ingest requests; a HIGH
     severity query on even servers, a block profile on odd ones.

   Each server takes a fixed 500 ingest requests and one analyst query
   per 250 of them (the mix of 250 req/s with 1 query/s).  Every
   store_query reloads the whole warehouse under the append lock, so its
   cost grows with the store: a fixed request count per server keeps the
   warehouse each query reads the same at every rate, which is what
   makes rates comparable and runs repeatable.

   The reference rung serves several such servers at 125 req/s, a rate
   that stays well below capacity even when the shared host is slow, so
   its latency is not at the mercy of queueing amplification.  Capacity
   (the highest rate without a growing backlog) is read from servers
   offered far more than they can take.  The traced run adds a ladder of
   rungs at higher rates (four servers each) that finds the highest rate
   whose p99 stays within 100 ms. *)

open Pb_util

let hth_serve = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "hth_serve.exe"))

let ref_rate = 125.
let ladder = [ 250.; 350.; 450.; 550.; 650.; 800.; 1000.; 1250.; 1500. ]
let saturation_rate = 2000.  (* well past capacity: the backlog grows *)
let limit_s = 0.100  (* the p99 latency limit *)
let per_server = 500  (* ingest requests each fresh server takes *)
let query_every = 250  (* ingest requests per analyst query *)

(* ------------------------------------------------------------------ *)
(* connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  inb : Buffer.t;  (* bytes of an incomplete response line *)
  pending : (float * int) Queue.t;  (* (due time, request index) in send order *)
}

let conn fd = { fd; out = Buffer.create 65536; inb = Buffer.create 4096; pending = Queue.create () }

let flush c =
  if Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    let n =
      try Unix.single_write_substring c.fd s 0 (String.length s)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
    in
    Buffer.clear c.out;
    if n < String.length s then Buffer.add_substring c.out s n (String.length s - n)
  end

let chunk = Bytes.create 65536

(* Read what is available; hand each complete line to [f]. *)
let read_lines c f =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | 0 -> failwith "server closed the connection"
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes c.inb chunk !start (i - !start);
        let line = Buffer.contents c.inb in
        Buffer.clear c.inb;
        start := i + 1;
        f line
      end
    done;
    Buffer.add_subbytes c.inb chunk !start (n - !start)

(* One request, one answer, nothing else in flight on [c]. *)
let rpc c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  let answer = ref None in
  let t_end = now () +. 10. in
  while !answer = None do
    if now () > t_end then failwith ("no answer to " ^ line);
    flush c;
    (match Unix.select [ c.fd ] [] [] 0.05 with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | [], _, _ -> ()
     | _ -> read_lines c (fun l -> answer := Some l));
  done;
  match Forensics.Jsonl.parse_line (Option.get !answer) with
  | Ok fields -> fields
  | Error e -> failwith ("bad answer to " ^ line ^ ": " ^ e)

let int_field fields k =
  match List.assoc_opt k fields with Some (Forensics.Jsonl.Int n) -> n | _ -> 0

(* ------------------------------------------------------------------ *)
(* servers                                                             *)

type server = { pid : int; serial : int; store : string; ingest : conn; analyst : conn }

let serial = ref 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ -> Unix.close fd; None

(* Exec a server on a fresh warehouse; returns it with the seconds from
   exec to its first health answer. *)
let start () =
  incr serial;
  let base = Printf.sprintf "%d-%d" (Unix.getpid ()) !serial in
  let sock = Filename.concat work_dir ("hs-" ^ base ^ ".sock") in
  let store = Filename.concat work_dir ("wh-" ^ base) in
  rm_rf store;
  let t0 = now () in
  let pid = spawn hth_serve [ "--socket"; sock; "--jobs"; "2"; "--store"; store ] in
  let rec wait_connect () =
    match connect sock with
    | Some fd -> fd
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> forget pid; failwith "hth_serve exited during start-up");
      if now () -. t0 > 30. then failwith "hth_serve did not start";
      Unix.sleepf 0.0005;
      wait_connect ()
  in
  let analyst = conn (wait_connect ()) in
  (match List.assoc_opt "status" (rpc analyst "{\"op\":\"health\"}") with
   | Some (Forensics.Jsonl.Str "health") -> ()
   | _ -> failwith "bad health answer");
  let setup = now () -. t0 in
  let ingest = conn (Option.get (connect sock)) in
  Unix.set_nonblock ingest.fd;
  Unix.set_nonblock analyst.fd;
  { pid; serial = !serial; store; ingest; analyst }, setup

(* Close both connections, SIGTERM, wait for the drain to finish.  The
   warehouse stays until the run ends: deleting it now would put the
   file system's work into the next server's measurement. *)
let stop s =
  (try Unix.close s.ingest.fd with Unix.Unix_error _ -> ());
  (try Unix.close s.analyst.fd with Unix.Unix_error _ -> ());
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (waitpid_noeintr s.pid)

(* ------------------------------------------------------------------ *)
(* one open-loop phase on one server                                   *)

type phase = {
  rate : float;
  lat : float array;  (* ingest requests in request order, seconds from due time *)
  mips : float array;  (* guest MIPS of each correct answer: insns / latency *)
  lag : float array;  (* generator lateness, seconds *)
  qlat : float array;  (* analyst queries *)
  answered : int;  (* ingest requests and queries *)
  abandoned : int;  (* unanswered when an over-limit ladder step was stopped *)
  fails : int;
  backlog : int;  (* ingest requests unanswered when the last one was sent *)
  p50s : float array;  (* each server's own p50 *)
  p99s : float array;  (* each server's own p99 *)
  rates : float array;  (* each server's ingest answers per second, first due to last answer *)
}

let check_ingest (r : Pb_inputs.req) i fields =
  let x = Pb_inputs.expect r in
  let str k = match List.assoc_opt k fields with Some (Forensics.Jsonl.Str s) -> s | _ -> "" in
  let bool k = match List.assoc_opt k fields with Some (Forensics.Jsonl.Bool b) -> Some b | _ -> None in
  x.x_ok
  && str "id" = string_of_int i
  && str "status" = "ok"
  && str "verdict" = x.x_verdict
  && int_field fields "warnings" = x.x_warnings
  && int_field fields "distinct" = x.x_distinct
  && int_field fields "events" = x.x_events
  && bool "degraded" = Some x.x_degraded

(* Both kinds of analyst read, alternating by server, so every HIGH
   query after the first on a server meets a larger store. *)
let query_line s =
  if s.serial mod 2 = 0 then "{\"op\":\"store_query\",\"kind\":\"query\",\"severity\":\"HIGH\",\"limit\":5}"
  else "{\"op\":\"store_query\",\"kind\":\"profile\",\"limit\":5}"

(* [run_phase s ~rate reqs ~abort] offers [reqs] at [rate] on the
   ingest connection, and a query on the analyst connection once half
   of each [query_every] requests are answered — tied to the server's
   progress, so every query reads a warehouse of the same size at any
   rate.  With [abort], the phase stops as soon as an ingest request has
   waited over a second: the step is then over the limit whatever
   follows.  With [interleave], only odd
   requests get spans. *)
let run_phase ?(interleave = false) s ~rate (reqs : Pb_inputs.req array) ~abort =
  let n = Array.length reqs in
  let nq = (n + (query_every / 2) - 1) / query_every in
  Array.iter (fun r -> ignore (Pb_inputs.expect r)) reqs;
  let lines = Array.mapi (fun i r -> Pb_inputs.request_line ~id:i r ^ "\n") reqs in
  let lat = Sample.create () and mips = Sample.create () and lag = Sample.create ()
  and qlat = Sample.create () in
  let fails = ref 0 and answered = ref 0 and last_answer = ref 0. in
  let high_runs = ref 0 in
  let t0 = now () +. 0.005 in
  let due_i i = t0 +. float_of_int i /. rate in
  let q_after j = (query_every / 2) + (query_every * j) in
  let ingest_answered = ref 0 in
  let i = ref 0 and j = ref 0 and backlog = ref (-1) and stopped = ref false in
  let hard_end = due_i n +. 20. in
  let on_ingest line =
    let due, k = Queue.pop s.ingest.pending in
    let t = now () in
    last_answer := t;
    incr ingest_answered;
    Sample.add lat (t -. due);
    if (not interleave) || k land 1 = 1 then
      ignore (Span.record ~rid:k "request" ~start:due ~stop:t);
    incr answered;
    match Forensics.Jsonl.parse_line line with
    | Ok f when check_ingest reqs.(k) k f ->
      Sample.add mips (float_of_int (Pb_inputs.expect reqs.(k)).x_ticks /. (t -. due) /. 1e6)
    | _ -> incr fails
  in
  let on_analyst line =
    let due, k = Queue.pop s.analyst.pending in
    let t = now () in
    Sample.add qlat (t -. due);
    incr answered;
    ignore (Span.record ~rid:k "analyst_query" ~start:due ~stop:t);
    match Forensics.Jsonl.parse_line line with
    | Ok f
      when List.assoc_opt "status" f = Some (Forensics.Jsonl.Str "store_query")
           && List.assoc_opt "enabled" f = Some (Forensics.Jsonl.Bool true)
           && not (List.mem_assoc "error" f) ->
      if List.assoc_opt "kind" f = Some (Forensics.Jsonl.Str "query") then begin
        (* the HIGH-run count only ever grows while the store fills *)
        let runs = int_field f "runs" in
        if runs < !high_runs then incr fails;
        high_runs := max !high_runs runs
      end
    | _ -> incr fails
  in
  let busy () =
    !i < n || !j < nq
    || not (Queue.is_empty s.ingest.pending && Queue.is_empty s.analyst.pending)
  in
  while busy () && not !stopped do
    let t = now () in
    while !i < n && due_i !i <= t do
      Buffer.add_string s.ingest.out lines.(!i);
      Queue.push (due_i !i, !i) s.ingest.pending;
      Sample.add lag (t -. due_i !i);
      incr i
    done;
    while !j < nq && !ingest_answered >= q_after !j do
      Buffer.add_string s.analyst.out (query_line s ^ "\n");
      Queue.push (t, !j) s.analyst.pending;
      incr j
    done;
    if !i = n && !backlog < 0 then backlog := Queue.length s.ingest.pending;
    flush s.ingest;
    flush s.analyst;
    let next = if !i < n then due_i !i else infinity in
    let timeout = Float.max 0. (Float.min 0.01 (next -. now ())) in
    let ws = List.filter (fun c -> Buffer.length c.out > 0) [ s.ingest; s.analyst ] in
    (match
       Unix.select [ s.ingest.fd; s.analyst.fd ] (List.map (fun c -> c.fd) ws) [] timeout
     with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | rs, _, _ ->
       if List.mem s.ingest.fd rs then read_lines s.ingest on_ingest;
       if List.mem s.analyst.fd rs then read_lines s.analyst on_analyst);
    let oldest_wait () =
      match Queue.peek_opt s.ingest.pending with Some (due, _) -> now () -. due | None -> 0.
    in
    if (abort && oldest_wait () > 1.) || now () > hard_end then stopped := true
  done;
  (* abandoned requests waited at least this long: they count against
     the step's percentiles, never as wrong answers *)
  let abandoned = Queue.length s.ingest.pending + (n - !i) in
  let t = now () in
  Queue.iter (fun (due, _) -> Sample.add lat (t -. due)) s.ingest.pending;
  for k = !i to n - 1 do Sample.add lat (Float.max 0. (t -. due_i k)) done;
  if !backlog < 0 then backlog := abandoned;
  { rate; lat = Sample.to_array lat; mips = Sample.to_array mips; lag = Sample.to_array lag;
    qlat = Sample.to_array qlat; answered = !answered; abandoned; fails = !fails;
    backlog = !backlog; p50s = [| percentile (Sample.to_array lat) 50. |];
    p99s = [| percentile (Sample.to_array lat) 99. |];
    rates = [| float_of_int (n - abandoned) /. (!last_answer -. t0) |] }

(* Several servers at one rate, as one sample. *)
let merge = function
  | [] -> invalid_arg "merge"
  | p0 :: _ as ps ->
    let cat f = Array.concat (List.map f ps) in
    let tot f = List.fold_left (fun a p -> a + f p) 0 ps in
    { rate = p0.rate; lat = cat (fun p -> p.lat); mips = cat (fun p -> p.mips);
      lag = cat (fun p -> p.lag); qlat = cat (fun p -> p.qlat);
      answered = tot (fun p -> p.answered); abandoned = tot (fun p -> p.abandoned);
      fails = tot (fun p -> p.fails);
      backlog = List.fold_left (fun a p -> max a p.backlog) 0 ps; p50s = cat (fun p -> p.p50s);
      p99s = cat (fun p -> p.p99s);
      rates = cat (fun p -> p.rates) }

(* A rung's percentiles: the median of its servers' own, so one
   disturbed server (a host hiccup) cannot decide a rung alone. *)
let p50 p = median p.p50s
let p99 p = median p.p99s

let passes p =
  p.abandoned = 0
  && p99 p <= limit_s
  && float_of_int p.backlog <= (p.rate *. limit_s) +. 1.

(* The highest rate meeting the limit: log-log interpolation of p99
   between the last passing and the first failing rung. *)
let max_rate rungs =
  let p99 p = Float.max 1e-4 (p99 p) in
  let fail_p99 p = Float.max (p99 p) (limit_s *. 1.01) in
  let rec go last = function
    | [] -> (match last with Some p -> p.rate | None -> 0.)
    | p :: rest when passes p -> go (Some p) rest
    | f :: _ ->
      (match last with
       | None -> f.rate *. limit_s /. fail_p99 f
       | Some p ->
         let x = (log limit_s -. log (p99 p)) /. (log (fail_p99 f) -. log (p99 p)) in
         p.rate *. ((f.rate /. p.rate) ** Float.min 1. (Float.max 0. x)))
  in
  go None rungs

(* ------------------------------------------------------------------ *)
(* servers at one rate                                                 *)

type telemetry = {
  rss_mb : float;  (* VmHWM before the drain *)
  stats : (string * Forensics.Jsonl.value) list;
  health : (string * Forensics.Jsonl.value) list;
  store_stats : (string * Forensics.Jsonl.value) list;
}

(* One fresh server through [per_server] requests; its telemetry is read
   once every answer is in (never after an abandoned step, whose
   connection still carries late answers). *)
let serve_once ?interleave st ~rate ~abort =
  Calib.sample ();
  let s, setup = start () in
  Fun.protect
    ~finally:(fun () -> stop s)
    (fun () ->
      let p = run_phase ?interleave s ~rate (Pb_inputs.draws st per_server) ~abort in
      let tel =
        if p.abandoned > 0 then None
        else
          Some
            { rss_mb = vm_hwm_mb (string_of_int s.pid);
              stats = rpc s.analyst "{\"op\":\"stats\"}";
              health = rpc s.analyst "{\"op\":\"health\"}";
              store_stats = rpc s.analyst "{\"op\":\"store_stats\"}" }
      in
      setup, p, tel, s.store)

let rung ?interleave st ~rate ~servers ~abort =
  let rs = List.init servers (fun _ -> serve_once ?interleave st ~rate ~abort) in
  ( List.map (fun (t, _, _, _) -> t) rs,
    merge (List.map (fun (_, p, _, _) -> p) rs),
    List.filter_map (fun (_, _, tel, _) -> tel) rs )

let phase_note name p =
  Printf.sprintf
    "%s @ %.0f req/s: %d answered, %d abandoned, %d failed, p50 %.3f ms, \
     p99 %.3f ms (medians of %d servers'; p99 %.3f ms pooled), \
     backlog %d, lag p99 %.3f ms, %d queries p50 %.3f ms -> %s"
    name p.rate p.answered p.abandoned p.fails
    (p50 p *. 1000.) (p99 p *. 1000.) (Array.length p.p99s)
    (percentile p.lat 99. *. 1000.) p.backlog
    (percentile p.lag 99. *. 1000.) (Array.length p.qlat) (median p.qlat *. 1000.)
    (if passes p then "pass" else "over the limit")

let setups_note setups =
  Printf.sprintf "server set-ups (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups))

(* ------------------------------------------------------------------ *)
(* the workload                                                        *)

let ms_field fields k = float_of_int (int_field fields k) /. 1000.
let sum_field tels f k = List.fold_left (fun a t -> a + int_field (f t) k) 0 tels

(* The serve, store and fleet layers, over [servers] reference servers
   plus the latency ladder ([ladder_servers] per rung): the server's own
   telemetry, the warehouse one server leaves, in-process store and
   fleet probes.  Returns the metrics, the notes, the reference rung and
   the warm probe's per-layer metrics. *)
let layers ~seed ~servers ~ladder_servers =
  let st = Pb_inputs.stream ~seed ~workload:"serve_mixed" in
  let rs =
    List.init servers (fun _ -> serve_once ~interleave:true st ~rate:ref_rate ~abort:false)
  in
  let setups = List.map (fun (t, _, _, _) -> t) rs in
  let p = merge (List.map (fun (_, p, _, _) -> p) rs) in
  let tels = List.filter_map (fun (_, _, tel, _) -> tel) rs in
  let store = (fun (_, _, _, d) -> d) (List.nth rs (servers - 1)) in
  (* the ladder: the highest rate whose p99 stays within the limit *)
  let traced = !Span.enabled in
  Span.enabled := false;
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let _, q, _ = rung st ~rate ~servers:ladder_servers ~abort:true in
      if passes q then climb (q :: acc) rest else List.rev (q :: acc)
  in
  let rungs =
    if passes p then climb [ p ] ladder
    else
      (* below the reference rate: probe half of it, so the estimate
         stays a measurement *)
      let _, q, _ = rung st ~rate:(ref_rate /. 2.) ~servers:ladder_servers ~abort:true in
      [ q; p ]
  in
  Span.enabled := traced;
  (* the warehouse one server's queries reload, read in-process *)
  let time_ms name f =
    let t0 = now () in
    let v = Span.with_ name f in
    (now () -. t0) *. 1000., v
  in
  let ok_or_fail = function Ok v -> v | Error e -> failwith (Hth.Error.to_string e) in
  let loads = List.init 3 (fun _ -> time_ms "store.load" (fun () -> Store.Warehouse.load store)) in
  let view = ok_or_fail (snd (List.hd loads)) in
  let query_ms, _ =
    time_ms "store.query" (fun () ->
        ok_or_fail
          (Store.Fleet_query.query view
             { Store.Fleet_query.no_filter with q_severity = Some "HIGH" }))
  in
  let profile_ms, _ =
    time_ms "store.profile" (fun () -> ok_or_fail (Store.Fleet_query.profile view))
  in
  let runs = List.length view.v_entries in
  let reqs = Pb_inputs.draws (Pb_inputs.stream ~seed ~workload:"serve_mixed") 120 in
  let items =
    Array.to_list
      (Array.map
         (fun (r : Pb_inputs.req) ->
           { Pb_layers.setup = Pb_inputs.setup_of r; policy = Pb_inputs.policy_of r;
             fault = Pb_inputs.fault_of r })
         reqs)
  in
  let warm, probe_notes =
    Pb_layers.probe ~cold:false ~store_dir:(Filename.concat work_dir "probe-wh") items
  in
  (* the same requests through an in-process two-worker fleet: the
     parks a server's fleet makes are not visible from outside *)
  let parks =
    let native = Hth.Engine.create ~keep_events:false () in
    let clips = Hth.Engine.create ~policy:Secpert.System.Clips ~keep_events:false () in
    let ex = Fleet.Executor.create ~jobs:2 [ "native", native; "clips", clips ] in
    ignore
      (Fleet.Executor.run_all ex
         (List.map
            (fun (r : Pb_inputs.req) ->
              Fleet.Executor.job ~engine:(if r.clips then "clips" else "native")
                ~fault:(Pb_inputs.fault_of r) (Pb_inputs.setup_of r))
            (Array.to_list reqs)));
    let st = Fleet.Executor.stats ex in
    Fleet.Executor.shutdown ex;
    st.parks, st.executed
  in
  let layer k = try List.assoc k warm with Not_found -> 0. in
  let per_server f = median (Array.of_list (List.map f tels)) in
  let client_p50 = p50 p *. 1000. in
  let server_p50 = per_server (fun t -> ms_field t.stats "latency_p50_us") in
  let s_runs = sum_field tels (fun t -> t.store_stats) "runs" in
  let framed = sum_field tels (fun t -> t.store_stats) "framed_bytes" in
  let raw = sum_field tels (fun t -> t.store_stats) "raw_bytes" in
  let executed = sum_field tels (fun t -> t.health) "executed" in
  let stolen = sum_field tels (fun t -> t.health) "stolen" in
  let metrics =
    [ "store.seal_ms", layer "store.seal_ms";
      "store.append_ms", layer "store.append_ms";
      "store.framed_bytes_per_run", ratio framed s_runs;
      "store.compression_ratio", ratio raw framed;
      "store.load_ms", median (Array.of_list (List.map fst loads));
      "store.query_ms", query_ms;
      "store.profile_ms", profile_ms;
      "serve.server_p50_ms", server_p50;
      "serve.server_p99_ms", per_server (fun t -> ms_field t.stats "latency_p99_us");
      "serve.client_overhead_ms", client_p50 -. server_p50;
      "serve.queue_wait_ms",
      server_p50
      -. (layer "core.build_ms" +. layer "core.spawn_ms" +. layer "core.run_ms")
      -. (layer "store.seal_ms" +. layer "store.append_ms");
      "serve.query_p50_ms", median p.qlat *. 1000.;
      "serve.p99_knee_rps", max_rate rungs;
      "fleet.steals_per_100", ratio stolen executed *. 100.;
      "fleet.parks_per_100", ratio (fst parks) (snd parks) *. 100.;
      "loadgen.lag_p99_ms",
      Array.fold_left Float.max 0.
        (Array.of_list (List.map (fun q -> percentile q.lag 99.) rungs)) *. 1000. ]
  in
  let notes =
    List.map (fun q -> phase_note (if q == p then "reference" else "ladder") q) rungs
    @ [ Printf.sprintf "server stats (median of %d servers): p50 %.3f ms; health: %d executed, %d stolen"
          (List.length tels) server_p50 executed stolen;
        Printf.sprintf "store: %d runs, %d raw / %d framed bytes; load/query/profile over %d runs"
          s_runs raw framed runs;
        Printf.sprintf "in-process two-worker fleet: %d parks / %d executed" (fst parks)
          (snd parks);
        setups_note setups ]
  in
  let attempted = List.fold_left (fun a q -> a + q.answered) 0 rungs in
  let failed = List.fold_left (fun a q -> a + q.fails) 0 rungs in
  metrics, notes @ probe_notes, p, warm, attempted, failed

let run ~seed ~seconds ~trace =
  let st = Pb_inputs.stream ~seed ~workload:"serve_mixed" in
  (* the reference rung: most of the run *)
  let ref_servers =
    max 2 (int_of_float (seconds *. 0.6 *. ref_rate /. float_of_int per_server))
  in
  if not trace then begin
    let setups, ref_p, tels = rung st ~rate:ref_rate ~servers:ref_servers ~abort:false in
    (* capacity: offered far more than it can take, each server answers
       at the rate its backlog stops growing *)
    let sat_setups, sat, _ = rung st ~rate:saturation_rate ~servers:10 ~abort:false in
    let setups = setups @ sat_setups in
    let attempted = ref_p.answered + sat.answered in
    let failed = ref_p.fails + sat.fails in
    { attempted; failed; scaled = false;
      metrics =
        [ "setup_s", median (Array.of_list setups);
          "latency_p50_ms", p50 ref_p *. 1000.;
          "latency_tail_ms", p99 ref_p *. 1000.;
          "max_rate_rps", median sat.rates;
          "peak_rss_mb", median (Array.of_list (List.map (fun t -> t.rss_mb) tels));
          "ok_ratio", ok_ratio ~attempted ~failed ];
      notes =
        [ phase_note "reference" ref_p;
          Printf.sprintf "capacity @ %.0f req/s offered: %s req/s answered per server"
            saturation_rate
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") sat.rates)));
          setups_note setups ] }
  end
  else begin
    Span.enabled := true;
    let metrics, notes, p, warm, attempted, failed =
      layers ~seed ~servers:ref_servers ~ladder_servers:4
    in
    let split = by_parity (Array.sub p.lat 0 (Array.length p.lat - p.abandoned)) in
    { attempted; failed; scaled = false;
      metrics =
        [ "core.engine_create_native_ms", Pb_layers.engine_create_ms Secpert.System.Native;
          "core.engine_create_clips_ms", Pb_layers.engine_create_ms Secpert.System.Clips;
          "guest_mips", median p.mips;
          "trace.overhead_pct", overhead_pct split;
          "failed_ratio", ratio failed attempted ]
        @ metrics @ warm;
      notes = overhead_note split :: notes }
  end
