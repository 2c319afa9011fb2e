(* Seeded inputs and their expected outputs.

   Every workload draws its inputs from a [Random.State] seeded by
   (--seed, workload), so one seed always gives the same input stream.
   The program only ever receives the generated scenario names, flags
   and request lines.  Expected outputs come from an in-process oracle:
   a warm engine per policy runs each distinct input once, and the
   benchmark compares every answer against that. *)

(* ------------------------------------------------------------------ *)
(* corpus draws: cold_run and serve_mixed                              *)

type req = {
  scenario : string;
  clips : bool;  (* --clips-policy / "policy":"clips" *)
  fault_seed : int option;  (* --seed N / "seed":N *)
}

(* A seeded, balanced uniform draw: the corpus in a fresh seeded order
   every 79 requests, and in every 5 consecutive requests exactly one
   with the CLIPS policy and one with a seeded fault plan (seeds 1..4,
   so faulted inputs repeat within a run).  Balancing keeps the mix —
   and with it the warehouse every analyst query reads — the same from
   seed to seed; the seed still decides order and pairing. *)
type stream = {
  st : Random.State.t;
  mutable bag : Guest.Scenario.t array;
  mutable pos : int;
  mutable k : int;
  mutable clips_slot : int;
  mutable fault_slot : int;
}

let corpus = Array.of_list Guest.Corpus.all

let stream ~seed ~workload =
  { st = Random.State.make [| seed; Hashtbl.hash workload |]; bag = [||]; pos = 0; k = 0;
    clips_slot = 0; fault_slot = 0 }

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let draw s =
  if s.pos = Array.length s.bag then begin
    s.bag <- shuffle s.st corpus;
    s.pos <- 0
  end;
  let sc = s.bag.(s.pos) in
  s.pos <- s.pos + 1;
  if s.k mod 5 = 0 then begin
    s.clips_slot <- Random.State.int s.st 5;
    s.fault_slot <- Random.State.int s.st 5
  end;
  let slot = s.k mod 5 in
  s.k <- s.k + 1;
  { scenario = sc.Guest.Scenario.sc_name;
    clips = slot = s.clips_slot;
    fault_seed =
      (if slot = s.fault_slot then Some (1 + Random.State.int s.st 4) else None) }

let draws s n = Array.init n (fun _ -> draw s)

let find_scenario name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> failwith ("unknown scenario " ^ name)

let setup_of r = (find_scenario r.scenario).Guest.Scenario.sc_setup

let fault_of r =
  match r.fault_seed with
  | None -> Osim.Fault.none
  | Some s -> Osim.Fault.seeded s

let policy_of r = if r.clips then Secpert.System.Clips else Secpert.System.Native

(* What one input must answer. *)
type expect = {
  x_verdict : string;  (* Hth.Report.verdict_label *)
  x_degraded : bool;
  x_warnings : int;
  x_distinct : int;
  x_events : int;
  x_ticks : int;
  x_ok : bool;
      (* the oracle itself ran cleanly and, for a fault-free input,
         gave the verdict the paper's tables expect *)
}

let oracle_engines =
  lazy
    ( Hth.Engine.create ~keep_events:false (),
      Hth.Engine.create ~policy:Secpert.System.Clips ~keep_events:false () )

let oracle_tbl : (req, expect) Hashtbl.t = Hashtbl.create 512

let expect r =
  match Hashtbl.find_opt oracle_tbl r with
  | Some x -> x
  | None ->
    let native, clips = Lazy.force oracle_engines in
    let sc = find_scenario r.scenario in
    let x =
      match
        Hth.Engine.run_outcome
          (if r.clips then clips else native)
          ~fault:(fault_of r) sc.sc_setup
      with
      | Error _ ->
        { x_verdict = "error"; x_degraded = false; x_warnings = 0;
          x_distinct = 0; x_events = 0; x_ticks = 0; x_ok = false }
      | Ok res ->
        let v = Hth.Report.verdict res in
        { x_verdict = Hth.Report.verdict_label v;
          x_degraded = res.degraded <> [];
          x_warnings = List.length res.warnings;
          x_distinct = List.length res.distinct;
          x_events = res.event_count;
          x_ticks = res.os_report.Osim.Kernel.rep_ticks;
          x_ok =
            r.fault_seed <> None
            || Guest.Scenario.matches sc.sc_expected v }
    in
    Hashtbl.replace oracle_tbl r x;
    x

(* hth_run arguments for one cold run. *)
let cli_args r =
  [ "run"; r.scenario ]
  @ (if r.clips then [ "--clips-policy" ] else [])
  @ match r.fault_seed with
    | None -> []
    | Some s -> [ "--seed"; string_of_int s ]

(* hth_serve request line (no trailing newline). *)
let request_line ~id r =
  String.concat ""
    ([ "{\"id\":\""; string_of_int id; "\",\"scenario\":";
       Pb_util.json_string r.scenario ]
    @ (if r.clips then [ ",\"policy\":\"clips\"" ] else [])
    @ (match r.fault_seed with
       | None -> []
       | Some s -> [ ",\"seed\":"; string_of_int s ])
    @ [ "}" ])

(* ------------------------------------------------------------------ *)
(* hot_loop: the Section 9 instruction-dense session                   *)

(* iters = 2000 + 50k, k in -4..4: about 1.16 M guest instructions per
   session; a handful of distinct sizes so each is built (and its
   unmonitored reference computed) once. *)
let hot_iters = Array.init 9 (fun k -> 2000 + (50 * (k - 4)))

let hot_scenarios =
  lazy (Array.map (fun iters -> Guest.Perf_workload.scenario ~iters) hot_iters)

let hot_draws s n = Array.init n (fun _ -> Random.State.int s.st (Array.length hot_iters))

(* The references each size must reproduce: the unmonitored run's
   ticks, final process states and console output, and the warnings of
   a monitored run with tiering off (the per-instruction interpreter the
   tiered engine must agree with).  The guest writes input-file data to
   a file named by a hard-coded string, so the policy warns: the
   session is not benign, and its warnings are compared instead. *)
let hot_reference =
  let tbl = Hashtbl.create 9 in
  let interp =
    lazy
      (Hth.Engine.create
         ~monitor_config:{ Harrier.Monitor.default_config with tier = false }
         ())
  in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some x -> x
    | None ->
      let sc = (Lazy.force hot_scenarios).(k) in
      let rep = Hth.Engine.run_unmonitored sc.Guest.Scenario.sc_setup in
      let r = Hth.Engine.run (Lazy.force interp) sc.sc_setup in
      let x = rep, List.map Secpert.Warning.to_string r.warnings in
      Hashtbl.replace tbl k x;
      x
