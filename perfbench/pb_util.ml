(* Shared benchmark plumbing: clock, statistics, span recorder, child
   processes, run metadata and the result line. *)

external monotonic_s : unit -> float = "hb_monotonic_s"

let now = monotonic_s

(* Work files (sockets, warehouses, span dumps) live here; dune and git
   both ignore the leading underscore / .gitignore entry. *)
let work_dir = Filename.concat "perfbench" "_work"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)

(* Nearest-rank percentile over an unsorted sample; 0 when empty. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.

(* [block_percentile xs p ~block] is the median, over consecutive blocks
   of [block] samples, of each block's [p]-th percentile: a tail
   estimate one disturbed stretch of the run cannot decide alone. *)
let block_percentile xs p ~block =
  let n = Array.length xs / block in
  if n < 2 then percentile xs p
  else median (Array.init n (fun i -> percentile (Array.sub xs (i * block) block) p))

let sum xs = Array.fold_left ( +. ) 0. xs

(* Growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
  let count s = s.n
end

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* spans: kept in memory, written out when the run ends                *)

module Span = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (* -1: root *)
    rid : int;  (* request id, -1 when not tied to one request *)
    start : float;
    mutable stop : float;
  }

  let enabled = ref false
  let spans : span list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []

  (* [with_ name ~rid f] records a span around [f] whose parent is the
     innermost open span; a no-op when tracing is off. *)
  let with_ ?(rid = -1) name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let s = { id; name; parent; rid; start = now (); stop = 0. } in
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack;
          spans := s :: !spans)
        f
    end

  (* A span whose interval is known after the fact (open-loop requests
     overlap, so they cannot nest on the stack). *)
  let record ?(rid = -1) name ~start ~stop =
    if !enabled then begin
      let id = !next_id in
      incr next_id;
      spans := { id; name; parent = -1; rid; start; stop } :: !spans;
      id
    end
    else -1

  (* Self time per span name: duration minus the part of the interval
     its children cover (children never overlap one another here). *)
  let self_times () =
    let all = List.rev !spans in
    let child_time = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_time s.parent
            ((try Hashtbl.find child_time s.parent with Not_found -> 0.)
            +. (s.stop -. s.start)))
      all;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          s.stop -. s.start
          -. (try Hashtbl.find child_time s.id with Not_found -> 0.)
        in
        let n, tot, slf =
          try Hashtbl.find by_name s.name with Not_found -> 0, 0., 0.
        in
        Hashtbl.replace by_name s.name (n + 1, tot +. s.stop -. s.start, slf +. self))
      all;
    List.sort compare
      (Hashtbl.fold (fun k (n, t, s) acc -> (k, n, t, s) :: acc) by_name [])

  let write_out path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
          s.id s.name s.parent s.rid s.start s.stop)
      (List.rev !spans);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* child processes                                                     *)

let children : int list ref = ref []

let forget pid = children := List.filter (( <> ) pid) !children

(* Stop every child still running (error paths); waits for each. *)
let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?(stdout = Lazy.force dev_null) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args))
      (Lazy.force dev_null) stdout (Lazy.force dev_null)
  in
  children := pid :: !children;
  pid

let rec waitpid_noeintr pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid
  | _, st ->
    forget pid;
    st

(* Run [prog args] to completion, returning its exit code (-1 when it
   did not exit normally) and its standard output. *)
let exec_capture prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    match spawn ~stdout:wr prog args with
    | pid -> Unix.close wr; pid
    | exception e -> Unix.close wr; Unix.close rd; raise e
  in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let code = match waitpid_noeintr pid with Unix.WEXITED n -> n | _ -> -1 in
  code, Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* host speed                                                          *)

(* The host is shared: neighbours slow it by a fifth and more within
   minutes.  A long-lived hb_calib child times a fixed allocating,
   memory-walking kernel between operations.  Its median is reported
   with every run; hot_loop, an in-process memory-bound workload like
   the kernel, reports its times as on a reference host where the kernel
   takes [reference_s] (scaled by reference_s / median).  hb_calib links
   none of the repository's code, so no change to the program moves the
   scale. *)
module Calib = struct
  let exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "perfbench" "hb_calib.exe"))
  let reference_s = 0.0070
  let samples = Sample.create ()
  let child = ref None

  let start () =
    let in_rd, in_wr = Unix.pipe ~cloexec:true () in
    let out_rd, out_wr = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe [| exe |] in_rd out_wr (Lazy.force dev_null) in
    Unix.close in_rd;
    Unix.close out_wr;
    children := pid :: !children;
    let c = pid, Unix.out_channel_of_descr in_wr, Unix.in_channel_of_descr out_rd in
    child := Some c;
    c

  let sample () =
    let _, oc, ic = match !child with Some c -> c | None -> start () in
    output_char oc '\n';
    flush oc;
    Sample.add samples (float_of_string (String.trim (input_line ic)))

  let stop () =
    Option.iter
      (fun (pid, oc, ic) ->
        close_out oc;
        close_in ic;
        ignore (waitpid_noeintr pid))
      !child;
    child := None

  let median_s () = median (Sample.to_array samples)

  (* multiply a time by it, divide a rate by it *)
  let scale () =
    let m = median_s () in
    if m = 0. then 1. else reference_s /. m
end

(* VmHWM of a live process, in MiB (0 when unreadable). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* ------------------------------------------------------------------ *)
(* run metadata                                                        *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The commit when the tree is a git checkout; otherwise a digest of the
   sources the benchmark builds, which identifies the code as exactly. *)
let source_id () =
  let git =
    if Sys.file_exists ".git" then
      match exec_capture "/usr/bin/env" [ "git"; "rev-parse"; "HEAD" ] with
      | 0, out -> Some (String.trim out)
      | _ | (exception _) -> None
    else None
  in
  match git with
  | Some c -> "git:" ^ c
  | None ->
    let files = ref [] in
    let rec walk dir =
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then (if f.[0] <> '_' && f.[0] <> '.' then walk p)
          else if
            List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c" ]
            || f = "dune"
          then files := p :: !files)
        (Sys.readdir dir)
    in
    List.iter (fun d -> if Sys.file_exists d then walk d) [ "lib"; "bin"; "perfbench" ];
    let b = Buffer.create 65536 in
    List.iter
      (fun p -> Buffer.add_string b p; Buffer.add_string b (read_file p))
      (List.sort compare !files);
    "src:" ^ Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

(* ------------------------------------------------------------------ *)
(* closed loop: one client, the next operation after the last answer   *)

type loop_stats = {
  lat : float array;  (* seconds per operation *)
  mips : float array;  (* guest instructions / latency of each correct operation, in millions *)
  ops : int;
  fails : int;
  insns : int;  (* guest instructions retired by the checked operations *)
}

(* Run [op rid] back to back for [seconds], timing the host kernel
   before every [calibrate_every]-th operation; [op] returns
   [(ok, guest_instructions, seconds)], timing the operation itself so
   input generation and output checks stay out of the sample.  With
   [interleave], spans are recorded for odd operations only, so traced
   and untraced operations share the same stretch of time. *)
let closed_loop ?(interleave = false) ~calibrate_every ~seconds op =
  let lat = Sample.create () and mips = Sample.create () in
  let fails = ref 0 and insns = ref 0 and rid = ref 0 in
  let t_end = now () +. seconds in
  while now () < t_end do
    if !rid mod calibrate_every = 0 then Calib.sample ();
    if interleave then Span.enabled := !rid land 1 = 1;
    let ok, n, dt = Span.with_ ~rid:!rid "request" (fun () -> op !rid) in
    Sample.add lat dt;
    if ok then Sample.add mips (float_of_int n /. dt /. 1e6) else incr fails;
    insns := !insns + n;
    incr rid
  done;
  Span.enabled := false;
  { lat = Sample.to_array lat; mips = Sample.to_array mips; ops = !rid; fails = !fails;
    insns = !insns }

(* [tail] picks the tail percentile: the highest one a run has at least
   ten samples beyond — p99 where operations are milliseconds, p90 for
   hot_loop's ~100 ms sessions. *)
let latency_metrics ~tail (s : loop_stats) =
  let busy = sum s.lat in
  [ "latency_p50_ms", percentile s.lat 50. *. 1000.;
    "latency_tail_ms", tail s.lat *. 1000.;
    "max_rate_rps", (if busy = 0. then 0. else float_of_int s.ops /. busy) ]

(* Guest instructions per second of operation latency, median over
   operations. *)
let guest_mips (s : loop_stats) = median s.mips

(* Tracing overhead: median latency of traced against untraced
   operations, given as (untraced, traced) samples. *)
let overhead_pct (plain, traced) =
  let p = median plain and t = median traced in
  if p = 0. then 0. else (t -. p) /. p *. 100.

let overhead_note (plain, traced) =
  Printf.sprintf "tracing overhead: p50 %.4f ms untraced (n=%d), %.4f ms traced (n=%d)"
    (median plain *. 1000.) (Array.length plain) (median traced *. 1000.)
    (Array.length traced)

(* Even (untraced) and odd (traced) operations of an interleaved loop. *)
let by_parity lat =
  let pick r = Array.of_list (List.filteri (fun i _ -> i land 1 = r) (Array.to_list lat)) in
  pick 0, pick 1

(* End-to-end times and rates as on the reference host (see [Calib]). *)
let normalize metrics =
  let k = Calib.scale () in
  List.map
    (fun (name, v) ->
      match name with
      | "setup_s" | "latency_p50_ms" | "latency_tail_ms" -> name, v *. k
      | "max_rate_rps" -> name, v /. k
      | _ -> name, v)
    metrics

let ok_ratio ~attempted ~failed =
  if attempted = 0 then 0. else float_of_int (attempted - failed) /. float_of_int attempted

(* What one workload run reports. *)
type outcome = {
  attempted : int;
  failed : int;
  scaled : bool;  (* end-to-end times are reported as on the reference host *)
  metrics : (string * float) list;
  notes : string list;  (* human-readable lines printed before the result *)
}
