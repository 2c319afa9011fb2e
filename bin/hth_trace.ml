(* hth_trace: offline forensic analysis of recorded JSONL traces.
   Everything here reads trace files or warehouse segments only — no
   guest re-execution.

     hth_trace explain trace.jsonl            per-warning causal chains
     hth_trace explain --store DIR pma        same, from the warehouse
     hth_trace query trace.jsonl --ev flow    filter the event stream
     hth_trace diff a.jsonl b.jsonl           first-divergence step
     hth_trace profile trace.jsonl            hot blocks / syscall mix
     hth_trace replay trace.jsonl             re-judge the events offline
     hth_trace fleet ls --store DIR           the manifest, one row per run
     hth_trace fleet query --store DIR ...    cross-run search by index
     hth_trace fleet profile --store DIR      fleet-wide hot blocks
     hth_trace fleet diff --store DIR RUN     run vs fleet-median counters

   With --store, the per-run commands operate on a warehouse run id
   instead of a file; the reconstructed trace is byte-identical to the
   JSONL the session would have written, so every answer matches the
   file path exactly. *)

open Cmdliner

let fail_store e =
  Printf.eprintf "hth_trace: %s\n" (Hth.Error.to_string e);
  exit 2

let load_view dir =
  match Store.Warehouse.load dir with Ok v -> v | Error e -> fail_store e

let find_entry (view : Store.Warehouse.view) run =
  match Store.Warehouse.find view run with
  | Some e -> e
  | None ->
    Printf.eprintf "hth_trace: no run %S in store %s\n" run view.v_dir;
    exit 2

let raw_of_store dir run =
  let view = load_view dir in
  match Store.Warehouse.raw_trace view (find_entry view run) with
  | Ok raw -> raw
  | Error e -> fail_store e

(* [path] is a trace file, or a warehouse run id under --store. *)
let load ~store path =
  let parsed =
    match store with
    | None -> Forensics.Reader.of_file path
    | Some dir -> Forensics.Reader.of_string (raw_of_store dir path)
  in
  match parsed with
  | Ok t -> t
  | Error m ->
    Printf.eprintf "hth_trace: %s: %s\n" path m;
    exit 2

let store_opt_arg =
  let doc =
    "Read from the trace warehouse at $(docv) instead of the \
     filesystem; positional arguments are then run ids from its \
     manifest (see hth_trace fleet ls)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let trace_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:"Recorded JSONL trace file (a warehouse run id with --store).")

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let doc =
    "Print every warning's causal chain: the firing rule activation, the \
     matched facts resolved to their originating events by step index, \
     and the taint origins resolved to the first touch of the \
     responsible resource.  Output is byte-deterministic for a given \
     trace."
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object per chain instead of text.")
  in
  let rule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"NAME" ~doc:"Only chains of this policy rule.")
  in
  let run store path json rule =
    let trace = load ~store path in
    let chains = Forensics.Chain.explain trace in
    let chains =
      match rule with
      | None -> chains
      | Some r ->
        List.filter
          (fun (c : Forensics.Chain.t) ->
            Forensics.Reader.str_field c.warning "rule" = Some r)
          chains
    in
    if json then
      List.iter
        (fun c -> print_endline (Forensics.Chain.json_of_chain c))
        chains
    else Fmt.pr "%a" Forensics.Chain.pp_chains chains
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ store_opt_arg $ trace_arg $ json_flag $ rule_arg)

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let query_cmd =
  let doc =
    "Filter trace entries by event kind, pid, resource-name substring \
     and step range; print the matching lines verbatim."
  in
  let ev_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ev" ] ~docv:"KIND"
          ~doc:"Event kind (phase, syscall, flow, rule, warning, fault, \
                counter, hot_block).")
  in
  let pid_arg =
    Arg.(value & opt (some int) None & info [ "pid" ] ~docv:"PID" ~doc:"Pid.")
  in
  let resource_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resource" ] ~docv:"SUBSTR"
          ~doc:"Substring matched against resource-name fields.")
  in
  let from_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "from" ] ~docv:"STEP" ~doc:"First step (inclusive).")
  in
  let to_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "to" ] ~docv:"STEP" ~doc:"Last step (inclusive).")
  in
  let count_flag =
    Arg.(
      value & flag
      & info [ "count" ] ~doc:"Print only the number of matching entries.")
  in
  let run store path ev pid resource step_min step_max count =
    let trace = load ~store path in
    let f = { Forensics.Query.ev; pid; resource; step_min; step_max } in
    let hits = Forensics.Query.run trace f in
    if count then Printf.printf "%d\n" (List.length hits)
    else
      List.iter
        (fun (e : Forensics.Reader.entry) -> print_endline e.raw)
        hits
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ store_opt_arg $ trace_arg $ ev_arg $ pid_arg
      $ resource_arg $ from_arg $ to_arg $ count_flag)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let diff_cmd =
  let doc =
    "Structural diff of two traces: report the first-divergence step \
     and both lines; exit 1 on divergence, 0 when byte-identical."
  in
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE_A" ~doc:"Baseline trace (run id with --store).")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE_B" ~doc:"Trace to compare (run id with --store).")
  in
  let run store a b =
    let d =
      match store with
      | None -> Forensics.Tdiff.diff_files ~expected:a ~actual:b
      | Some dir ->
        Ok
          (Forensics.Tdiff.diff ~expected:(raw_of_store dir a)
             ~actual:(raw_of_store dir b))
    in
    match d with
    | Error m ->
      Printf.eprintf "hth_trace: %s\n" m;
      exit 2
    | Ok None -> Fmt.pr "traces identical@."
    | Ok (Some d) ->
      Fmt.pr "%a" (Forensics.Tdiff.pp ~a_name:a ~b_name:b) d;
      exit 1
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ store_opt_arg $ a_arg $ b_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile_cmd =
  let doc =
    "Profile a trace offline: phase spans, event mix, syscall mix and \
     top-N hot blocks from the counters the session embedded — the \
     same numbers the live run printed under --stats."
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"How many hot blocks to print.")
  in
  let run store path top =
    let trace = load ~store path in
    Fmt.pr "%a"
      (fun ppf p -> Forensics.Profile.pp ~top ppf p)
      (Forensics.Profile.of_trace trace)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ store_opt_arg $ trace_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)

let replay_cmd =
  let doc =
    "Re-judge a recorded session offline: decode the trace's flow lines \
     back into Harrier events and push them through a fresh Secpert \
     (default trust and thresholds), printing the event and warning \
     counts and the distinct warnings.  Under the policy the session \
     ran with, the warnings are the live run's."
  in
  let clips_flag =
    Arg.(
      value & flag
      & info [ "clips-policy" ]
          ~doc:"Judge with the textual CLIPS policy instead of the native \
                rules.")
  in
  let run store path clips =
    let trace = load ~store path in
    match Forensics.Reader.events trace with
    | Error e ->
      Fmt.epr "hth_trace: %s: %a@." path Forensics.Reader.pp_decode_error e;
      exit 2
    | Ok events ->
      let policy =
        if clips then Secpert.System.Clips else Secpert.System.Native
      in
      let warnings = Secpert.System.replay ~policy events in
      Fmt.pr "%d events, %d warnings@." (List.length events)
        (List.length warnings);
      List.iter
        (fun w -> Fmt.pr "%s@." (Secpert.Warning.to_string w))
        (Secpert.Warning.dedup warnings)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ store_opt_arg $ trace_arg $ clips_flag)

(* ------------------------------------------------------------------ *)
(* fleet: cross-run queries over a warehouse                           *)

let store_req_arg =
  let doc = "The trace warehouse directory to query." in
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc)

let fleet_ls_cmd =
  let doc =
    "List the warehouse manifest, one row per stored run, in append \
     order: run id, policy, verdict, expectation match, steps and \
     raw/framed sizes, counter digest."
  in
  let run store =
    let view = load_view store in
    List.iter
      (fun (e : Store.Manifest.entry) ->
        Printf.printf "%-44s %-7s %-24s %-8s %6d %9d %9d %s\n" e.e_run
          e.e_policy e.e_verdict
          (if e.e_match then "ok" else "MISMATCH")
          e.e_steps e.e_raw_bytes e.e_framed_bytes e.e_digest)
      view.v_entries;
    let raw, framed =
      List.fold_left
        (fun (r, f) (e : Store.Manifest.entry) ->
          (r + e.e_raw_bytes, f + e.e_framed_bytes))
        (0, 0) view.v_entries
    in
    Printf.printf "%d runs, %d bytes raw, %d framed\n"
      (List.length view.v_entries)
      raw framed
  in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ store_req_arg)

let fleet_query_cmd =
  let doc =
    "Find every stored run satisfying all given predicates, by manifest \
     metadata and segment index alone (no trace is decompressed).  \
     E.g. --resource execve finds every session where a tainted name \
     reached an exec; the reported steps are the evidence lines, ready \
     for hth_trace query --store --from/--to."
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Exact scenario name.")
  in
  let rule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"NAME"
          ~doc:"A warning fired by this policy rule.")
  in
  let severity_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "severity" ] ~docv:"SEV"
          ~doc:"A warning of this severity (LOW|MEDIUM|HIGH).")
  in
  let resource_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resource" ] ~docv:"SUBSTR"
          ~doc:"Substring of an indexed resource/name touched by a flow.")
  in
  let verdict_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "verdict" ] ~docv:"SUBSTR"
          ~doc:"Substring of the run's verdict label.")
  in
  let count_flag =
    Arg.(
      value & flag
      & info [ "count" ] ~doc:"Print only the number of matching runs.")
  in
  let run store scenario rule severity resource verdict count =
    let view = load_view store in
    let f =
      { Store.Fleet_query.q_scenario = scenario; q_rule = rule;
        q_severity = severity; q_resource = resource; q_verdict = verdict }
    in
    match Store.Fleet_query.query view f with
    | Error e -> fail_store e
    | Ok hits ->
      if count then Printf.printf "%d\n" (List.length hits)
      else begin
        List.iter
          (fun (h : Store.Fleet_query.hit) ->
            Printf.printf "%-44s %-24s %s\n" h.h_entry.e_run
              h.h_entry.e_verdict
              (match h.h_steps with
               | [] -> "-"
               | steps ->
                 "steps "
                 ^ String.concat "," (List.map string_of_int steps)))
          hits;
        Printf.printf "%d matching runs\n" (List.length hits)
      end
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ store_req_arg $ scenario_arg $ rule_arg $ severity_arg
      $ resource_arg $ verdict_arg $ count_flag)

let fleet_profile_cmd =
  let doc =
    "Aggregate per-block hit counts across every stored run — the \
     fleet-wide hot-block profile, hottest first — from segment \
     indexes alone."
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"How many blocks to print.")
  in
  let run store top =
    match Store.Fleet_query.profile (load_view store) with
    | Error e -> fail_store e
    | Ok blocks ->
      Printf.printf "%10s %5s  %s\n" "hits" "runs" "block";
      List.iteri
        (fun i (b : Store.Fleet_query.block) ->
          if i < top then
            Printf.printf "%10d %5d  pid %d 0x%06x\n" b.b_count b.b_runs
              b.b_pid b.b_addr)
        blocks;
      Printf.printf "%d distinct blocks fleet-wide\n" (List.length blocks)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ store_req_arg $ top_arg)

let fleet_diff_cmd =
  let doc =
    "Compare one run's embedded counter profile against the fleet \
     median (lower median over every stored run, absent counters \
     counting 0): prints each drifting counter with both values."
  in
  let run_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN" ~doc:"Run id (see fleet ls).")
  in
  let run store run_id =
    match Store.Fleet_query.diff (load_view store) ~run:run_id with
    | Error e -> fail_store e
    | Ok (drifts, compared) ->
      List.iter
        (fun (d : Store.Fleet_query.drift) ->
          Printf.printf "%-44s %10d  median %10d\n" d.d_name d.d_value
            d.d_median)
        drifts;
      Printf.printf "%d of %d counters drift from the fleet median\n"
        (List.length drifts) compared
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ store_req_arg $ run_arg)

let fleet_cmd =
  let doc = "Cross-run queries over a trace warehouse." in
  Cmd.group
    (Cmd.info "fleet" ~doc)
    [ fleet_ls_cmd; fleet_query_cmd; fleet_profile_cmd; fleet_diff_cmd ]

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "hth_trace" ~version:"1.0"
      ~doc:"Offline forensic analysis of recorded HTH traces"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ explain_cmd; query_cmd; diff_cmd; profile_cmd; replay_cmd;
            fleet_cmd ]))
