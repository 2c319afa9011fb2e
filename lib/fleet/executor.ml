(* Session executor over Pool: submits Engine sessions, returns
   outcomes in submission order.

   Sharing model: the caller's engines are compiled once; [create]
   gives every worker its own [Hth.Engine.fork] of each (shared
   compiled policy / trust / config, private image cache, taint-space
   pool and guest memory pool).  Forks are keyed by (worker slot,
   epoch): when a wedged worker is respawned, the replacement gets a
   fresh fork while the abandoned ghost keeps the one it was handed —
   so no mutable engine state ever crosses domains, even during the
   handover race.

   Ordering: submissions get a dense sequence number; finished
   outcomes land in a reorder buffer and [next] releases them strictly
   in sequence, so downstream output is byte-identical to a sequential
   run no matter how the pool interleaved.

   Supervision: each job may carry a wall-clock deadline.  A running
   job is tracked (worker, epoch, start time); [force_timeout]
   synthesizes an [Error Timeout] outcome at the job's sequence
   position so the reorder buffer never stalls on a wedged session,
   and the eventual late completion — if it ever comes — is detected
   and dropped.  [respawn] re-forks the slot's engines and replaces
   the worker domain (see Pool.respawn). *)

type job = {
  j_engine : string;
  j_setup : Hth.Engine.setup;
  j_budgets : Hth.Engine.budgets;
  j_fault : Osim.Fault.plan;
  j_trace : bool;
  j_store : bool;
  j_deadline : float option;  (* wall-clock seconds *)
}

let job ?(engine = "default") ?(budgets = Hth.Engine.no_budgets)
    ?(fault = Osim.Fault.none) ?(trace = false) ?(store = false) ?deadline
    setup =
  { j_engine = engine; j_setup = setup; j_budgets = budgets;
    j_fault = fault; j_trace = trace; j_store = store; j_deadline = deadline }

let with_deadline j seconds = { j with j_deadline = Some seconds }

let deadline j = j.j_deadline

type outcome = {
  o_seq : int;
  o_trace : string option;
  o_segment : Store.Segment.sealed option;
  o_result : (Hth.Engine.result, Hth.Error.t) Stdlib.result;
}

type running = {
  rw_worker : int;
  rw_epoch : int;
  rw_started : float;
  rw_deadline : float option;
}

type t = {
  pool : Pool.t;
  parents : (string * Hth.Engine.t) list;  (* for re-forking on respawn *)
  forks : (string * (int * int, Hth.Engine.t) Hashtbl.t) list;
      (* name -> (worker, epoch) -> private fork; under [mu] *)
  mu : Mutex.t;
  cv : Condition.t;
  ready : (int, outcome) Hashtbl.t;  (* finished, not yet released *)
  running : (int, running) Hashtbl.t;  (* in flight on a worker *)
  mutable next_seq : int;  (* next sequence number to assign *)
  mutable next_out : int;  (* next sequence number [next] releases *)
  mutable closed : bool;
}

let create ?(jobs = 1) engines =
  let jobs = max 1 jobs in
  let forks =
    List.map
      (fun (name, e) ->
        let tbl = Hashtbl.create (2 * jobs) in
        for w = 0 to jobs - 1 do
          Hashtbl.replace tbl (w, 0) (Hth.Engine.fork e)
        done;
        name, tbl)
      engines
  in
  { pool = Pool.create ~jobs ();
    parents = engines;
    forks;
    mu = Mutex.create ();
    cv = Condition.create ();
    ready = Hashtbl.create 64;
    running = Hashtbl.create 16;
    next_seq = 0;
    next_out = 0;
    closed = false }

let jobs t = Pool.jobs t.pool

let epoch t w = Pool.epoch t.pool w

(* Under [mu]: has [seq]'s outcome already been recorded or released?
   Releases are strictly sequential, so the released set is exactly
   [0, next_out). *)
let done_already t seq = seq < t.next_out || Hashtbl.mem t.ready seq

(* Record an outcome unless a forced timeout beat us to it (a late
   completion from an abandoned worker must never displace the
   deterministic release order downstream has already seen). *)
let post t seq outcome =
  Mutex.lock t.mu;
  Hashtbl.remove t.running seq;
  if not (done_already t seq) then begin
    Hashtbl.replace t.ready seq outcome;
    Condition.broadcast t.cv
  end;
  Mutex.unlock t.mu

(* Runs on a worker domain.  Every failure path (unknown engine,
   session error, escaped exception) becomes an ordinary outcome so
   the sequence stays gap-free and the worker survives. *)
let run_one t job seq w epoch =
  let fork =
    Mutex.lock t.mu;
    let f =
      match List.assoc_opt job.j_engine t.forks with
      | None -> None
      | Some tbl -> Hashtbl.find_opt tbl (w, epoch)
    in
    Mutex.unlock t.mu;
    f
  in
  match fork with
  | None ->
    post t seq
      { o_seq = seq;
        o_trace = None;
        o_segment = None;
        o_result =
          Error
            (Hth.Error.Policy_error
               (Printf.sprintf "fleet: unknown engine %S" job.j_engine)) }
  | Some eng ->
    Mutex.lock t.mu;
    Hashtbl.replace t.running seq
      { rw_worker = w; rw_epoch = epoch;
        rw_started = Unix.gettimeofday (); rw_deadline = job.j_deadline };
    Mutex.unlock t.mu;
    let buf = if job.j_trace then Some (Buffer.create 4096) else None in
    let writer =
      if job.j_store then Some (Store.Segment.Writer.create ()) else None
    in
    (* the engine owns the sink lifecycle ([?trace]); with both capture
       kinds requested, one chunked sink tees into buffer and writer so
       the bytes are identical by construction *)
    let trace =
      match (buf, writer) with
      | None, None -> None
      | Some b, None -> Some (Obs.Trace.buffer_target b)
      | None, Some w -> Some (Store.Segment.Writer.target w)
      | Some b, Some w ->
        Some
          (Obs.Trace.chunk_target (fun chunk ->
               Buffer.add_string b chunk;
               Store.Segment.Writer.add_chunk w chunk))
    in
    let result =
      try
        Hth.Engine.run_outcome eng ~budgets:job.j_budgets ~fault:job.j_fault
          ?trace job.j_setup
      with exn ->
        Error
          (Hth.Error.Crash { phase = "fleet"; exn = Printexc.to_string exn })
    in
    post t seq
      { o_seq = seq;
        o_trace = Option.map Buffer.contents buf;
        o_segment = Option.map Store.Segment.Writer.seal writer;
        o_result = result }

let try_submit t job =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    None
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Mutex.unlock t.mu;
    Pool.submit t.pool (fun w epoch -> run_one t job seq w epoch);
    Some seq
  end

let submit t job =
  match try_submit t job with
  | Some seq -> seq
  | None -> invalid_arg "Fleet.Executor.submit: executor is closed"

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu

let next t =
  Mutex.lock t.mu;
  let rec wait () =
    match Hashtbl.find_opt t.ready t.next_out with
    | Some o ->
      Hashtbl.remove t.ready t.next_out;
      t.next_out <- t.next_out + 1;
      Mutex.unlock t.mu;
      Some o
    | None ->
      if t.closed && t.next_out >= t.next_seq then begin
        Mutex.unlock t.mu;
        None
      end
      else begin
        Condition.wait t.cv t.mu;
        wait ()
      end
  in
  wait ()

let pending t =
  Mutex.lock t.mu;
  let n = t.next_seq - t.next_out in
  Mutex.unlock t.mu;
  n

let overdue t ~now =
  Mutex.lock t.mu;
  let o =
    Hashtbl.fold
      (fun seq r acc ->
        match r.rw_deadline with
        | Some d when now -. r.rw_started > d -> seq :: acc
        | _ -> acc)
      t.running []
  in
  Mutex.unlock t.mu;
  List.sort compare o

let force_timeout t seq =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.running seq with
    | None -> None  (* completed (or already forced) in the meantime *)
    | Some ri ->
      Hashtbl.remove t.running seq;
      if not (done_already t seq) then begin
        Hashtbl.replace t.ready seq
          { o_seq = seq;
            o_trace = None;
            o_segment = None;
            o_result =
              Error
                (Hth.Error.Timeout
                   { seconds =
                       Option.value ~default:0. ri.rw_deadline }) };
        Condition.broadcast t.cv
      end;
      Some (ri.rw_worker, ri.rw_epoch)
  in
  Mutex.unlock t.mu;
  r

let respawn t w =
  (* the replacement's fork must exist before the replacement spawns;
     only one supervising caller drives respawns, so the next epoch is
     exactly current + 1 *)
  let next_epoch = Pool.epoch t.pool w + 1 in
  Mutex.lock t.mu;
  List.iter
    (fun (name, tbl) ->
      let parent = List.assoc name t.parents in
      Hashtbl.replace tbl (w, next_epoch) (Hth.Engine.fork parent))
    t.forks;
  Mutex.unlock t.mu;
  let e = Pool.respawn t.pool w in
  assert (e = next_epoch)

let run_all t jobs =
  let n = List.length jobs in
  List.iter (fun j -> ignore (submit t j)) jobs;
  List.init n (fun _ ->
      match next t with
      | Some o -> o
      | None -> assert false (* [next] only returns None once closed *))

let stats t = Pool.stats t.pool

let partition_dependent n =
  List.exists
    (fun p -> String.starts_with ~prefix:p n)
    [ "fleet.steals"; "fleet.parks"; "engine.images." ]

let shutdown t =
  close t;
  Pool.shutdown t.pool
