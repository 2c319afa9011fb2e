(* Zero-dependency observability: counters, histograms, span timers and
   a pluggable structured-event sink.

   Discipline: the disabled paths must be free.  Trace emission sites
   guard on [Trace.enabled] *before* building their field lists, so the
   no-op sink allocates nothing.  [Counter.incr] is a [Domain.DLS]
   lookup plus an array store — about 10 ns, eight times a plain field
   increment — so it belongs at per-event granularity or coarser
   (syscalls, events, rule firings, sessions).  Per-instruction,
   per-block and per-shadow-access paths count into plain fields of
   their owner (the VM machine, the taint space, the monitor) and add
   them here with [Counter.add] at a quantum or session boundary; see
   DESIGN.md §8.  Resolve [Counter.labeled] handles once per label, not
   per occurrence: each call takes the registry lock.  Wall-clock time never
   enters the trace — only the monotone step index — so traces of a
   deterministic simulation are byte-identical across runs; timings go
   to histograms, which surface in stats only.

   Multi-domain model (the fleet executor runs sessions on worker
   domains): handles — counter and histogram identities — are global,
   registered once under a mutex so every domain agrees on names and
   slots.  Every *mutable* cell is domain-local, reached through one
   [Domain.DLS] key per kind: a domain increments only its own cells,
   installs only its own trace sink, and snapshots only its own state.
   Nothing in the hot path takes a lock or issues an atomic
   read-modify-write; two domains never write the same cell.  A worker
   hands its finished shard to the coordinator as an {!export}, and
   {!absorb} folds shards into the calling domain's cells — int sums,
   so the merged counters are independent of how sessions were
   partitioned across workers. *)

type value = Int of int | Str of string | Bool of bool

(* The flat-JSON dialect every HTH writer shares (trace lines, segment
   indexes, manifests, serve responses) and [Forensics.Jsonl] reads:
   quote, backslash and control bytes escaped, every other byte
   verbatim, so any byte string survives a round trip. *)
let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'

let add_member buf (k, v) =
  Buffer.add_char buf '"';
  add_escaped buf k;
  Buffer.add_string buf "\":";
  add_value buf v

let render fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i kv ->
      if i > 0 then Buffer.add_char buf ',';
      add_member buf kv)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Registration lock: guards the name->handle registries and slot
   allocation for counters and histograms.  Never taken by [incr],
   [add], [observe] or [Trace.emit]. *)
let reg_mu = Mutex.create ()

let locked f =
  Mutex.lock reg_mu;
  match f () with
  | v ->
    Mutex.unlock reg_mu;
    v
  | exception e ->
    Mutex.unlock reg_mu;
    raise e

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

module Counter = struct
  (* A handle is just a name and a slot into each domain's cell
     array.  Cells live behind DLS so [incr] from concurrent domains
     touch disjoint memory. *)
  type t = { name : string; slot : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64
  let next_slot = ref 0

  (* Family bookkeeping backs the counter-name stability gate: a
     [labeled base label] call registers the family [base ^ ".*"], and
     the generated member name is excluded from the stable-name set
     (members are data-dependent — syscall names, rule names — while
     the family itself is part of the observable interface). *)
  let families : (string, unit) Hashtbl.t = Hashtbl.create 16
  let members : (string, unit) Hashtbl.t = Hashtbl.create 64

  let cells_key : int array Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [||])

  let make_locked name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; slot = !next_slot } in
      incr next_slot;
      Hashtbl.add registry name c;
      c

  let make name = locked (fun () -> make_locked name)

  let labeled base label =
    let name = base ^ "." ^ label in
    locked (fun () ->
        if not (Hashtbl.mem families (base ^ ".*")) then
          Hashtbl.replace families (base ^ ".*") ();
        if not (Hashtbl.mem members name) then Hashtbl.replace members name ();
        make_locked name)

  (* Grow this domain's cell array to cover [slot].  Out of line: the
     fast path is one DLS read, one bounds check and one store. *)
  let[@inline never] grow slot =
    let a = Domain.DLS.get cells_key in
    let n = max (slot + 1) (max (2 * Array.length a) 64) in
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    Domain.DLS.set cells_key b;
    b

  let[@inline] cells slot =
    let a = Domain.DLS.get cells_key in
    if slot < Array.length a then a else grow slot

  let[@inline] incr t =
    let a = cells t.slot in
    Array.unsafe_set a t.slot (Array.unsafe_get a t.slot + 1)

  let[@inline] add t n =
    let a = cells t.slot in
    Array.unsafe_set a t.slot (Array.unsafe_get a t.slot + n)

  let value t =
    let a = Domain.DLS.get cells_key in
    if t.slot < Array.length a then a.(t.slot) else 0

  let name t = t.name
end

(* ------------------------------------------------------------------ *)
(* Histograms (count / sum / min / max, plus a deterministic sample
   reservoir for percentiles)                                          *)

module Histogram = struct
  (* Percentiles come from a decimating reservoir: keep every
     [stride]-th observation; when the buffer fills, drop every other
     kept sample and double the stride.  No randomness — the kept set
     is a pure function of the observation sequence, so percentile
     output is reproducible run to run (for deterministic inputs). *)
  let reservoir_cap = 512

  (* The domain-local mutable state of one histogram. *)
  type state = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
    samples : float array;
    mutable kept : int;
    mutable stride : int;
    mutable pending : int;
  }

  type t = { h_name : string; h_slot : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let next_slot = ref 0

  let fresh_state () =
    { count = 0; sum = 0.; min = infinity; max = neg_infinity;
      samples = Array.make reservoir_cap 0.; kept = 0; stride = 1;
      pending = 0 }

  let states_key : state array Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [||])

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
          let h = { h_name = name; h_slot = !next_slot } in
          incr next_slot;
          Hashtbl.add registry name h;
          h)

  let[@inline never] grow slot =
    let a = Domain.DLS.get states_key in
    let n = max (slot + 1) (max (2 * Array.length a) 16) in
    let b = Array.init n (fun i ->
        if i < Array.length a then a.(i) else fresh_state ())
    in
    Domain.DLS.set states_key b;
    b

  let state h =
    let a = Domain.DLS.get states_key in
    let a = if h.h_slot < Array.length a then a else grow h.h_slot in
    a.(h.h_slot)

  let keep s x =
    if s.kept = reservoir_cap then begin
      let half = reservoir_cap / 2 in
      for i = 0 to half - 1 do
        s.samples.(i) <- s.samples.(2 * i)
      done;
      s.kept <- half;
      s.stride <- s.stride * 2
    end;
    s.samples.(s.kept) <- x;
    s.kept <- s.kept + 1

  (* Push one value through the decimating reservoir only — used by
     [observe] and by shard absorption (which merges count/sum/min/max
     exactly and re-feeds the kept samples). *)
  let keep_sample s x =
    s.pending <- s.pending + 1;
    if s.pending >= s.stride then begin
      s.pending <- 0;
      keep s x
    end

  let observe h x =
    let s = state h in
    s.count <- s.count + 1;
    s.sum <- s.sum +. x;
    if x < s.min then s.min <- x;
    if x > s.max then s.max <- x;
    keep_sample s x

  (* Drop the calling domain's state for [h] — fresh interval
     measurement without disturbing any other histogram or domain. *)
  let reset h =
    let a = Domain.DLS.get states_key in
    if h.h_slot < Array.length a then a.(h.h_slot) <- fresh_state ()

  let name h = h.h_name
  let count h = (state h).count
  let sum h = (state h).sum

  let mean h =
    let s = state h in
    if s.count = 0 then 0. else s.sum /. float_of_int s.count

  let minimum h =
    let s = state h in
    if s.count = 0 then 0. else s.min

  let maximum h =
    let s = state h in
    if s.count = 0 then 0. else s.max

  (* Nearest-rank percentile over the sorted kept samples. *)
  let percentile h p =
    let s = state h in
    if s.kept = 0 then 0.
    else begin
      let sorted = Array.sub s.samples 0 s.kept in
      Array.sort Float.compare sorted;
      let rank =
        int_of_float (ceil (p /. 100. *. float_of_int s.kept)) - 1
      in
      let rank = if rank < 0 then 0 else rank in
      let rank = if rank > s.kept - 1 then s.kept - 1 else rank in
      sorted.(rank)
    end
end

(* ------------------------------------------------------------------ *)
(* Span timers: durations recorded into histograms.  The clock is
   pluggable so the library stays dependency-free: the default,
   [Sys.time], is process CPU time; the binaries install a monotonic
   wall clock ([bin/hth_clock]).  Durations are observability data,
   never trace data.                                                   *)

module Span = struct
  (* Configure the clock before spawning worker domains; it is read
     concurrently afterwards. *)
  let clock = ref Sys.time

  let set_clock f = clock := f

  let time h f =
    let t0 = !clock () in
    let finish () = Histogram.observe h (!clock () -. t0) in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
end

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                  *)

type snapshot = (string * int) list

let counter_handles () =
  locked (fun () ->
      Hashtbl.fold (fun _ c acc -> c :: acc) Counter.registry [])

let snapshot () : snapshot =
  let cells = Domain.DLS.get Counter.cells_key in
  let len = Array.length cells in
  counter_handles ()
  |> List.map (fun (c : Counter.t) ->
         c.name, if c.slot < len then cells.(c.slot) else 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Counters only ever grow (gauges aside), so [diff] reports the
   per-interval activity: [after - before], dropping untouched
   counters. *)
let diff ~(before : snapshot) ~(after : snapshot) : snapshot =
  let base = Hashtbl.create (List.length before) in
  List.iter (fun (n, v) -> Hashtbl.replace base n v) before;
  List.filter_map
    (fun (n, v) ->
      let d = v - (match Hashtbl.find_opt base n with Some b -> b | None -> 0)
      in
      if d = 0 then None else Some (n, d))
    after

let histograms () =
  locked (fun () ->
      Hashtbl.fold (fun _ h acc -> h :: acc) Histogram.registry [])
  |> List.sort (fun a b ->
         String.compare a.Histogram.h_name b.Histogram.h_name)

(* The stable counter-name surface: every directly-registered counter
   name, with [Counter.labeled]-generated members collapsed into their
   [base.*] family.  This is what trace consumers and dashboards key
   on, and what the stability test snapshots. *)
let counter_families () =
  locked (fun () ->
      let stable =
        Hashtbl.fold
          (fun name _ acc ->
            if Hashtbl.mem Counter.members name then acc else name :: acc)
          Counter.registry []
      in
      let fams =
        Hashtbl.fold (fun f () acc -> f :: acc) Counter.families []
      in
      List.sort String.compare (stable @ fams))

(* ------------------------------------------------------------------ *)
(* Shard export / merge                                                *)

(* A worker domain's whole observability state, as finished data: the
   nonzero counter cells and the non-empty histogram states, each keyed
   by its (shared) handle.  [absorb] folds an export into the calling
   domain's own cells; folding worker shards in worker-index order
   makes the merge a deterministic function of the shard contents.
   Counter merge is integer addition, so the totals are additionally
   independent of how sessions were partitioned across workers;
   histogram reservoirs are re-decimated, so percentile summaries are
   deterministic for the given shards but — like any bounded sample —
   approximate. *)
type hexport = {
  xh_count : int;
  xh_sum : float;
  xh_min : float;
  xh_max : float;
  xh_samples : float array;  (* kept samples, oldest first *)
}

type export = {
  x_counters : (Counter.t * int) list;  (* sorted by name *)
  x_hists : (Histogram.t * hexport) list;  (* sorted by name *)
}

let export () =
  let cells = Domain.DLS.get Counter.cells_key in
  let len = Array.length cells in
  let x_counters =
    counter_handles ()
    |> List.filter_map (fun (c : Counter.t) ->
           if c.slot < len && cells.(c.slot) <> 0 then
             Some (c, cells.(c.slot))
           else None)
    |> List.sort (fun ((a : Counter.t), _) (b, _) ->
           String.compare a.name b.name)
  in
  let x_hists =
    histograms ()
    |> List.filter_map (fun h ->
           let s = Histogram.state h in
           if s.Histogram.count = 0 then None
           else
             Some
               ( h,
                 { xh_count = s.Histogram.count; xh_sum = s.Histogram.sum;
                   xh_min = s.Histogram.min; xh_max = s.Histogram.max;
                   xh_samples = Array.sub s.Histogram.samples 0
                       s.Histogram.kept } ))
  in
  { x_counters; x_hists }

let absorb x =
  List.iter (fun (c, v) -> Counter.add c v) x.x_counters;
  List.iter
    (fun (h, xs) ->
      let s = Histogram.state h in
      s.Histogram.count <- s.Histogram.count + xs.xh_count;
      s.Histogram.sum <- s.Histogram.sum +. xs.xh_sum;
      if xs.xh_min < s.Histogram.min then s.Histogram.min <- xs.xh_min;
      if xs.xh_max > s.Histogram.max then s.Histogram.max <- xs.xh_max;
      Array.iter (Histogram.keep_sample s) xs.xh_samples)
    x.x_hists

(* ------------------------------------------------------------------ *)
(* Structured-event trace sink                                         *)

module Trace = struct
  (* Where emitted lines should end up.  A first-class value so callers
     (the engine, the fleet executor, the segment store) can hand a
     destination across an API boundary without owning the install /
     disable lifecycle themselves. *)
  type target =
    | T_buffer of Buffer.t
    | T_chunks of { threshold : int; write : string -> unit }

  (* The installed sink.  [Direct] renders straight into the caller's
     destination buffer — zero copies, zero per-line allocation.
     [Chunked] renders into one reused staging buffer and hands
     line-aligned chunks of at least [threshold] bytes to [write]:
     channel sinks pay one [output_string] per ~64KiB instead of two
     system-visible writes per event, and the segment store receives
     its data frames pre-chunked. *)
  type sink =
    | Noop
    | Direct of Buffer.t
    | Chunked of { buf : Buffer.t; threshold : int; write : string -> unit }

  (* One sink and step index per domain: a fleet worker traces its own
     session into its own buffer without synchronizing with anyone. *)
  type state = { mutable sink : sink; mutable step : int }

  let state_key : state Domain.DLS.key =
    Domain.DLS.new_key (fun () -> { sink = Noop; step = 0 })

  let[@inline] state () = Domain.DLS.get state_key

  let[@inline] enabled () =
    match (state ()).sink with Noop -> false | Direct _ | Chunked _ -> true

  let default_chunk = 64 * 1024

  let buffer_target b = T_buffer b

  let chunk_target ?(threshold = default_chunk) write =
    T_chunks { threshold; write }

  let channel_target oc =
    chunk_target (fun chunk -> output_string oc chunk)

  let install target =
    let st = state () in
    (st.sink <-
       (match target with
       | T_buffer b -> Direct b
       | T_chunks { threshold; write } ->
         Chunked { buf = Buffer.create (threshold + 512); threshold; write }));
    st.step <- 0

  let to_channel oc = install (channel_target oc)
  let to_buffer b = install (buffer_target b)

  (* Flush-on-disable: a chunked sink may hold a partial chunk; hand it
     over before dropping the sink so the destination sees every line.
     Callers that [close_out] after [disable] keep working unchanged. *)
  let disable () =
    let st = state () in
    (match st.sink with
    | Chunked { buf; write; _ } when Buffer.length buf > 0 ->
      write (Buffer.contents buf);
      Buffer.clear buf
    | Noop | Direct _ | Chunked _ -> ());
    st.sink <- Noop

  let steps () = (state ()).step

  (* Render one line, newline included, directly into [buf] — the
     destination itself for [Direct] sinks, the reused staging buffer
     for [Chunked] ones.  No per-line [Buffer.create], no intermediate
     [Buffer.contents] string. *)
  let render buf st ev fields =
    Buffer.add_string buf "{\"step\":";
    Buffer.add_string buf (string_of_int st.step);
    Buffer.add_string buf ",\"ev\":\"";
    add_escaped buf ev;
    Buffer.add_char buf '"';
    List.iter
      (fun kv ->
        Buffer.add_char buf ',';
        add_member buf kv)
      fields;
    Buffer.add_char buf '}';
    Buffer.add_char buf '\n';
    st.step <- st.step + 1

  let emit ev fields =
    let st = state () in
    match st.sink with
    | Noop -> ()
    | Direct buf -> render buf st ev fields
    | Chunked { buf; threshold; write } ->
      render buf st ev fields;
      if Buffer.length buf >= threshold then begin
        write (Buffer.contents buf);
        Buffer.clear buf
      end
end
