(* hth_run: run any corpus scenario under HTH and report.

     dune exec bin/hth_run.exe -- list
     dune exec bin/hth_run.exe -- run pma --events
     dune exec bin/hth_run.exe -- run grabem --no-dataflow --trust-nothing *)

open Cmdliner

let list_cmd =
  let doc = "List every scenario in the evaluation corpus." in
  let run () =
    List.iter
      (fun (gid, title, scs) ->
        Printf.printf "%s (%s):\n" title gid;
        List.iter
          (fun (sc : Guest.Scenario.t) ->
            Printf.printf "  %-40s %-18s %s\n" sc.sc_name
              (Guest.Scenario.expected_label sc.sc_expected)
              sc.sc_descr)
          scs)
      Guest.Corpus.groups
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let scenario_arg =
  let doc = "Scenario name (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let events_flag =
  let doc = "Also print the raw Harrier event stream." in
  Arg.(value & flag & info [ "events" ] ~doc)

let no_dataflow_flag =
  let doc = "Disable per-instruction data-flow tracking." in
  Arg.(value & flag & info [ "no-dataflow" ] ~doc)

let no_freq_flag =
  let doc = "Disable basic-block frequency tracking." in
  Arg.(value & flag & info [ "no-frequency" ] ~doc)

let no_shortcircuit_flag =
  let doc = "Disable library-call short-circuiting (gethostbyname)." in
  Arg.(value & flag & info [ "no-shortcircuit" ] ~doc)

let no_tier_flag =
  let doc =
    "Disable tiered block execution: every basic block is interpreted \
     per-instruction (tier 0) instead of promoting hot blocks to \
     compiled bodies with fused taint summaries.  Traces are \
     byte-identical either way; this flag only trades speed.  The \
     HTH_TIER environment variable set to 0 has the same effect."
  in
  Arg.(value & flag & info [ "no-tier" ] ~doc)

let tier_threshold_arg =
  let doc =
    Printf.sprintf
      "Promote a basic block to tier 1 after it has been entered $(docv) \
       times (default %d).  1 compiles every block on first entry."
      Harrier.Monitor.default_config.tier_threshold
  in
  Arg.(
    value
    & opt int Harrier.Monitor.default_config.tier_threshold
    & info [ "tier-threshold" ] ~docv:"N" ~doc)

(* --no-tier, or HTH_TIER=0 in the environment (handy for A/B runs of
   whole test suites without threading a flag everywhere) *)
let tier_enabled no_tier =
  (not no_tier)
  && (match Sys.getenv_opt "HTH_TIER" with Some "0" -> false | _ -> true)

let trust_nothing_flag =
  let doc = "Empty the trust database (libc warnings included)." in
  Arg.(value & flag & info [ "trust-nothing" ] ~doc)

let clips_flag =
  let doc = "Drive Secpert with the textual CLIPS policy instead of the              native rules." in
  Arg.(value & flag & info [ "clips-policy" ] ~doc)

let verbose_flag =
  let doc = "Enable debug tracing of syscalls and monitor events." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let kill_at_arg =
  let doc =
    "Kill the offending process when a warning at or above this severity \
     fires (LOW, MEDIUM or HIGH) — stands in for the interactive user."
  in
  Arg.(value & opt (some string) None & info [ "kill-at" ] ~docv:"SEV" ~doc)

let trace_arg =
  let doc =
    "Write a JSONL event trace (syscalls, taint flows, rule firings, \
     warnings; one JSON object per line with a monotone step index) to \
     $(docv).  Traces of the deterministic simulator are byte-identical \
     across runs — the golden harness in test/golden/ relies on this."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_flag =
  let doc = "Print the observability counters collected during the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let store_arg =
  let doc =
    "Record the run into the trace warehouse at $(docv) (created if \
     missing, extended if present): a framed, compressed trace segment \
     with an embedded offset index, plus a manifest entry carrying the \
     verdict and a counter digest.  Query with hth_trace --store; the \
     reconstructed trace is byte-identical to --trace output."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let open_store dir =
  match Store.Warehouse.open_ dir with
  | Ok wh -> wh
  | Error e ->
    Printf.eprintf "hth_run: %s\n" (Hth.Error.to_string e);
    exit 2

(* One manifest entry per run, shared by `run --store` and
   `batch --store`: error outcomes are recorded too ([error:<kind>],
   match:false) so the warehouse is a complete account of the batch. *)
let manifest_entry ~scenario ~expected ~matches ~policy ~seed ~fault_plan
    outcome (sealed : Store.Segment.sealed) =
  let verdict, matched, warnings, distinct, degraded =
    match outcome with
    | Ok (r : Hth.Engine.result) ->
      let v = Hth.Report.verdict r in
      ( Hth.Report.verdict_label v, matches v,
        List.length r.warnings, List.length r.distinct, r.degraded <> [] )
    | Error e -> "error:" ^ Hth.Error.kind e, false, 0, 0, false
  in
  { Store.Manifest.e_run = scenario;
    e_scenario = scenario;
    e_policy = policy;
    e_seed = seed;
    e_fault = Option.map Osim.Fault.to_string fault_plan;
    e_verdict = verdict;
    e_expected = expected;
    e_match = matched;
    e_warnings = warnings;
    e_distinct = distinct;
    e_degraded = degraded;
    e_steps = 0;  (* size fields are filled by Warehouse.append *)
    e_raw_bytes = 0;
    e_framed_bytes = 0;
    e_digest = Store.Manifest.digest sealed.s_index.ix_counters;
    e_segment = "" }

(* Fault plans and budgets are validated by cmdliner converters, so a
   malformed SPEC is a usage error (cmdliner's CLI-error exit code), not
   a crash deep in the run. *)

let fault_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Osim.Fault.parse s) in
  let print ppf p = Fmt.string ppf (Osim.Fault.to_string p) in
  Arg.conv (parse, print)

let fault_plan_arg =
  let doc =
    "Inject deterministic syscall faults.  $(docv) is a comma-separated \
     list of rules CALL[@RESOURCE][#N]=KIND — CALL a syscall name or *, \
     RESOURCE a resource-name substring, N the 1-based occurrence, KIND \
     one of enoent, eio, enomem, eagain, ebadf, econnreset, short, \
     stall.  Example: SYS_open@/etc/passwd#2=enoent,SYS_read=short"
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault-plan" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc =
    "Inject pseudo-random (but fully deterministic) syscall faults drawn \
     from the given seed.  Mutually exclusive with $(b,--fault-plan)."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let budget_conv =
  let parse s =
    match Hth.Session.parse_budgets [ s ] with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Fmt.string)

let budget_args =
  let doc =
    "Bound one session resource (repeatable).  $(docv) is KEY=N with KEY \
     one of ticks, wm, shadow-pages, warnings.  Budgets degrade \
     gracefully: the run completes and is flagged degraded."
  in
  Arg.(value & opt_all budget_conv [] & info [ "budget" ] ~docv:"KEY=N" ~doc)

let fault_of plan seed =
  match plan, seed with
  | Some _, Some _ ->
    Printf.eprintf "--fault-plan and --seed are mutually exclusive\n";
    exit 2
  | Some p, None -> p
  | None, Some s -> Osim.Fault.seeded s
  | None, None -> Osim.Fault.none

let budgets_of specs =
  (* specs were validated one by one by [budget_conv] *)
  match Hth.Session.parse_budgets specs with
  | Ok b -> b
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 2

let run_scenario name events no_dataflow no_freq no_shortcircuit no_tier
    tier_threshold trust_nothing clips verbose kill_at trace_file stats
    fault_plan seed budget_specs store_dir =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  match Guest.Corpus.find name with
  | None ->
    Printf.eprintf "unknown scenario %S; try `list`\n" name;
    exit 2
  | Some sc ->
    let monitor_config =
      { Harrier.Monitor.default_config with
        track_dataflow = not no_dataflow;
        track_frequency = not no_freq;
        shortcircuit =
          (if no_shortcircuit then []
           else Harrier.Monitor.default_config.shortcircuit);
        tier = tier_enabled no_tier;
        tier_threshold }
    in
    let trust =
      if trust_nothing then Secpert.Trust.nothing else Secpert.Trust.default
    in
    let auto_kill =
      Option.map
        (fun s ->
          match Secpert.Severity.of_label (String.uppercase_ascii s) with
          | Some sev -> sev
          | None ->
            Printf.eprintf "bad severity %S (LOW|MEDIUM|HIGH)\n" s;
            exit 2)
        kill_at
    in
    let policy =
      if clips then Secpert.System.Clips else Secpert.System.Native
    in
    let store = Option.map open_store store_dir in
    let writer = Option.map (fun _ -> Store.Segment.Writer.create ()) store in
    let trace_oc = Option.map open_out trace_file in
    (* the session owns the sink lifecycle; with both --trace and
       --store, one chunked sink tees so the file and the segment hold
       identical bytes by construction *)
    let trace =
      match trace_oc, writer with
      | None, None -> None
      | Some oc, None -> Some (Obs.Trace.channel_target oc)
      | None, Some w -> Some (Store.Segment.Writer.target w)
      | Some oc, Some w ->
        Some
          (Obs.Trace.chunk_target (fun chunk ->
               output_string oc chunk;
               Store.Segment.Writer.add_chunk w chunk))
    in
    let outcome =
      Fun.protect
        ~finally:(fun () -> Option.iter close_out trace_oc)
        (fun () ->
          Hth.Session.run_outcome ~monitor_config ~trust ~policy ?auto_kill
            ~budgets:(budgets_of budget_specs)
            ~fault:(fault_of fault_plan seed) ?trace sc.sc_setup)
    in
    Option.iter
      (fun wh ->
        let sealed = Store.Segment.Writer.seal (Option.get writer) in
        let entry =
          manifest_entry ~scenario:sc.sc_name
            ~expected:(Guest.Scenario.expected_label sc.sc_expected)
            ~matches:(Guest.Scenario.matches sc.sc_expected)
            ~policy:(if clips then "clips" else "native")
            ~seed ~fault_plan outcome sealed
        in
        ignore (Store.Warehouse.append wh ~entry ~sealed);
        Store.Warehouse.close wh)
      store;
    (match outcome with
     | Error e ->
       (* one-line typed diagnosis; the exit code identifies the class *)
       Fmt.epr "hth_run: %s: %a@." name Hth.Error.pp e;
       exit (Hth.Error.exit_code e)
     | Ok r ->
       Fmt.pr "%a@." (Hth.Report.pp_result ~verbose:events) r;
       Fmt.pr "expected: %s@."
         (Guest.Scenario.expected_label sc.sc_expected);
       Fmt.pr "%a@." Osim.Kernel.pp_report r.os_report;
       if stats then begin
         Fmt.pr "%a@." Hth.Report.pp_stats r.stats;
         Fmt.pr "%a@." Hth.Report.pp_tier r.tier;
         Fmt.pr "%a@." Hth.Report.pp_hot_blocks r.hot_blocks
       end;
       if
         not
           (Guest.Scenario.matches sc.sc_expected (Hth.Report.verdict r))
       then exit 1)

let run_cmd =
  let doc = "Run one scenario under HTH monitoring." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_scenario $ scenario_arg $ events_flag $ no_dataflow_flag
      $ no_freq_flag $ no_shortcircuit_flag $ no_tier_flag
      $ tier_threshold_arg $ trust_nothing_flag
      $ clips_flag $ verbose_flag $ kill_at_arg $ trace_arg $ stats_flag
      $ fault_plan_arg $ seed_arg $ budget_args $ store_arg)

(* ------------------------------------------------------------------ *)
(* batch: the whole corpus, crash-isolated                             *)

(* [batch --stats]: the counters every session of the batch added — the
   worker shards merged through Obs export/absorb — printed as
   [run --stats] prints one run's: guest-behaviour counters and the
   timing histograms, the tier table summed over sessions, and the
   hottest blocks (labelled by scenario); plus the block mix by tier
   (the [vm.blocks.*] and [harrier.summary.*] strategy counters).
   Counters that depend on how work was spread over workers are left
   out, so the report reads the same at any --jobs. *)
let print_batch_stats stats outcomes =
  let guest, strategy =
    List.partition
      (fun (n, _) -> not (Hth.Engine.strategy_counter n))
      (List.filter
         (fun (n, _) -> not (Fleet.Executor.partition_dependent n))
         stats)
  in
  Fmt.pr "@.%a@." Hth.Report.pp_stats guest;
  let results =
    List.filter_map
      (fun (o : Fleet.Executor.outcome) -> Result.to_option o.o_result)
      outcomes
  in
  let tier =
    List.fold_left
      (fun (a : Hth.Engine.tier_counts) (r : Hth.Engine.result) ->
        { Hth.Engine.tc_interpreted = a.tc_interpreted + r.tier.tc_interpreted;
          tc_compiled = a.tc_compiled + r.tier.tc_compiled;
          tc_summarized = a.tc_summarized + r.tier.tc_summarized;
          tc_deopt = a.tc_deopt + r.tier.tc_deopt })
      Hth.Engine.no_tier_counts results
  in
  Fmt.pr "%a@." Hth.Report.pp_tier tier;
  let mix =
    List.filter
      (fun (n, _) ->
        String.starts_with ~prefix:"vm.blocks." n
        || String.starts_with ~prefix:"harrier.summary." n)
      strategy
  in
  Fmt.pr "@[<v>block mix (%d):@," (List.length mix);
  List.iter (fun (n, v) -> Fmt.pr "  %-24s %d@," n v) mix;
  Fmt.pr "@]@.";
  let hot =
    List.concat
      (List.map2
         (fun (sc : Guest.Scenario.t) (o : Fleet.Executor.outcome) ->
           match o.o_result with
           | Ok r ->
             List.map (fun (pid, addr, n) -> n, sc.sc_name, pid, addr)
               r.hot_blocks
           | Error _ -> [])
         Guest.Corpus.all outcomes)
    |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare b a)
    |> List.filteri (fun i _ -> i < 10)
  in
  if hot <> [] then begin
    Fmt.pr "@[<v>hot blocks (%d):@," (List.length hot);
    List.iter
      (fun (n, name, pid, addr) ->
        Fmt.pr "  %-40s pid %d 0x%06x %d@," name pid addr n)
      hot;
    Fmt.pr "@]@."
  end

let batch_cmd =
  let doc =
    "Run the whole corpus through one shared engine, isolating \
     per-scenario failures.  The engine compiles the policy and links \
     each scenario's images once; per-scenario failures print one \
     summary row and the exit status is nonzero if any scenario errored \
     or missed its expected verdict — without a single broken scenario \
     aborting the rest."
  in
  let share_taint_flag =
    let doc =
      "Share one taint arena across the whole batch (faster; per-run \
       taint.* counters become warm-dependent and are omitted from \
       traces)."
    in
    Arg.(value & flag & info [ "share-taint" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Run scenarios on $(docv) worker domains (work-stealing fleet; \
       each worker forks the engine's mutable pools).  Output is \
       byte-identical whatever $(docv) is."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Write each scenario's JSONL trace to $(docv)/NAME.jsonl.  Traces \
       are captured per worker domain and are byte-identical to \
       single-scenario --trace runs."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let batch_store_arg =
    let doc =
      "Record every scenario of the batch into the trace warehouse at \
       $(docv).  Segments are sealed on the worker domains but appended \
       in submission order by the coordinator, so the store is \
       byte-identical whatever $(b,--jobs) is."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let batch_stats_flag =
    let doc =
      "After the summary, print the counters the whole batch collected \
       (worker shards merged, so the counter lines are the same at any \
       $(b,--jobs)), the summed tier table, the block mix by tier and \
       the hottest blocks."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run no_tier tier_threshold trust_nothing clips kill_at fault_plan
      seed budget_specs share_taint jobs trace_dir store_dir stats =
    let budgets = budgets_of budget_specs in
    let fault = fault_of fault_plan seed in
    let trust =
      if trust_nothing then Secpert.Trust.nothing else Secpert.Trust.default
    in
    let auto_kill =
      Option.map
        (fun s ->
          match Secpert.Severity.of_label (String.uppercase_ascii s) with
          | Some sev -> sev
          | None ->
            Printf.eprintf "bad severity %S (LOW|MEDIUM|HIGH)\n" s;
            exit 2)
        kill_at
    in
    let policy =
      if clips then Secpert.System.Clips else Secpert.System.Native
    in
    let monitor_config =
      { Harrier.Monitor.default_config with
        tier = tier_enabled no_tier;
        tier_threshold }
    in
    let engine =
      Hth.Engine.create ~monitor_config ~trust ~policy ?auto_kill
        ~share_taint_space:share_taint ()
    in
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      trace_dir;
    let store = Option.map open_store store_dir in
    (* Every batch goes through the fleet (jobs=1 is a one-worker
       fleet); outcomes come back in submission order, so this prints
       the exact rows the old sequential loop printed. *)
    let before = Obs.snapshot () in
    let ex = Fleet.Executor.create ~jobs [ "default", engine ] in
    let outcomes =
      Fleet.Executor.run_all ex
        (List.map
           (fun (sc : Guest.Scenario.t) ->
             Fleet.Executor.job ~budgets ~fault
               ~trace:(trace_dir <> None)
               ~store:(Option.is_some store) sc.sc_setup)
           Guest.Corpus.all)
    in
    (* shutdown absorbs every worker's Obs shard into this domain *)
    Fleet.Executor.shutdown ex;
    let batch_stats = Obs.diff ~before ~after:(Obs.snapshot ()) in
    let failures = ref 0 and errors = ref 0 and degraded = ref 0 in
    Fmt.pr "%-40s %-18s %-22s %s@." "scenario" "expected" "outcome" "notes";
    List.iter2
      (fun (sc : Guest.Scenario.t) (o : Fleet.Executor.outcome) ->
        (* outcomes arrive in submission order, so appending here gives
           a manifest that is byte-identical across --jobs counts *)
        Option.iter
          (fun wh ->
            Option.iter
              (fun sealed ->
                let entry =
                  manifest_entry ~scenario:sc.sc_name
                    ~expected:(Guest.Scenario.expected_label sc.sc_expected)
                    ~matches:(Guest.Scenario.matches sc.sc_expected)
                    ~policy:(if clips then "clips" else "native")
                    ~seed ~fault_plan o.o_result sealed
                in
                ignore (Store.Warehouse.append wh ~entry ~sealed))
              o.o_segment)
          store;
        Option.iter
          (fun dir ->
            Option.iter
              (fun bytes ->
                (* scenario names can hold '/' (W32/MyDoom.B) *)
                let file =
                  String.map
                    (fun c -> if c = '/' || c = ' ' then '_' else c)
                    sc.sc_name
                in
                let oc =
                  open_out (Filename.concat dir (file ^ ".jsonl"))
                in
                output_string oc bytes;
                close_out oc)
              o.o_trace)
          trace_dir;
        match o.o_result with
        | Error e ->
          incr errors;
          Fmt.pr "%-40s %-18s %-22s %a@." sc.sc_name
            (Guest.Scenario.expected_label sc.sc_expected)
            (Fmt.str "error[%s]" (Hth.Error.kind e))
            Hth.Error.pp e
        | Ok r ->
          let v = Hth.Report.verdict r in
          let ok = Guest.Scenario.matches sc.sc_expected v in
          if not ok then incr failures;
          if r.degraded <> [] then incr degraded;
          Fmt.pr "%-40s %-18s %-22s %s@." sc.sc_name
            (Guest.Scenario.expected_label sc.sc_expected)
            (Hth.Report.verdict_label v)
            (String.concat "; "
               ((if ok then [] else [ "MISMATCH" ])
               @ if r.degraded = [] then [] else [ "degraded" ])))
      Guest.Corpus.all outcomes;
    Option.iter Store.Warehouse.close store;
    Fmt.pr "@.%d scenarios: %d verdict mismatches, %d errors, %d degraded@."
      (List.length Guest.Corpus.all)
      !failures !errors !degraded;
    if stats then print_batch_stats batch_stats outcomes;
    if !failures > 0 || !errors > 0 then exit 1
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ no_tier_flag $ tier_threshold_arg $ trust_nothing_flag
      $ clips_flag $ kill_at_arg
      $ fault_plan_arg $ seed_arg $ budget_args $ share_taint_flag
      $ jobs_arg $ trace_dir_arg $ batch_store_arg $ batch_stats_flag)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "hth_run" ~version:"1.0"
      ~doc:"Hunting Trojan Horses: run monitored guest scenarios"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ list_cmd; run_cmd; batch_cmd ]))
