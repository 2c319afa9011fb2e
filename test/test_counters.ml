(* Exact counter totals.

   The goldens pin only guest-behaviour counters: [Engine] keeps the
   strategy counters ([taint.*], [harrier.shadow.*], [vm.blocks.*],
   [harrier.summary.*]) out of traces and results.  This suite pins the
   full [Obs.diff] around each case instead — every counter a session
   touches, as any outside snapshot diff or fleet shard export sees it —
   against test/counters.expected, so a count lost or doubled on its
   way into Obs fails here even when every golden still passes.

   Cases: a corpus slice with tiering on and off, seeded fault plans, a
   tick budget that truncates a run, a shadow-page budget that degrades
   one, scenarios that execve mid-run, and corpus batches through the
   fleet at one and two workers (their totals must agree with each
   other and with the file).

   The expected file is one [case<TAB>counter<TAB>value] line per
   nonzero counter.  On a mismatch the actual rendering is written to
   counters.actual in the test's working directory; review it before
   copying it over the expected file. *)

let diff_of f =
  let before = Obs.snapshot () in
  f ();
  Obs.diff ~before ~after:(Obs.snapshot ())

let session ?(tier = true) ?budgets ?fault (sc : Guest.Scenario.t) =
  let monitor_config = { Harrier.Monitor.default_config with tier } in
  diff_of (fun () ->
      ignore
        (Hth.Session.run_outcome ~monitor_config ?budgets ?fault sc.sc_setup))

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "unknown scenario %S" name

(* Every fourth corpus scenario: all groups, a few dozen sessions. *)
let slice = List.filteri (fun i _ -> i mod 4 = 0) Guest.Corpus.all

let batch jobs =
  let stats =
    diff_of (fun () ->
        let ex =
          Fleet.Executor.create ~jobs [ "default", Hth.Engine.create () ]
        in
        ignore
          (Fleet.Executor.run_all ex
             (List.map
                (fun (sc : Guest.Scenario.t) -> Fleet.Executor.job sc.sc_setup)
                Guest.Corpus.all));
        Fleet.Executor.shutdown ex)
  in
  List.filter (fun (n, _) -> not (Fleet.Executor.partition_dependent n)) stats

let cases () =
  let per_scenario label run =
    List.map
      (fun (sc : Guest.Scenario.t) -> label ^ ":" ^ sc.sc_name, run sc)
      slice
  in
  let budgets b = Result.get_ok (Hth.Session.parse_budgets b) in
  per_scenario "tier" (fun sc -> session sc)
  @ per_scenario "no-tier" (fun sc -> session ~tier:false sc)
  @ List.map
      (fun name ->
        ( "fault-seed-3:" ^ name,
          session ~fault:(Osim.Fault.seeded 3) (find name) ))
      [ "pma"; "grabem"; "Sendmail Trojan"; "sleeper daemon triggered" ]
  @ [ ( "budget-ticks:sleeper daemon triggered",
        session ~budgets:(budgets [ "ticks=3000" ])
          (find "sleeper daemon triggered") );
      ( "budget-shadow-pages:pma",
        session ~budgets:(budgets [ "shadow-pages=1" ]) (find "pma") ) ]
  @ List.concat_map
      (fun name ->
        [ "execve:" ^ name, session (find name);
          "execve-no-tier:" ^ name, session ~tier:false (find name) ])
      [ "ElmExploit"; "g++"; "update client triggered" ]

let render cases =
  let b = Buffer.create 65536 in
  List.iter
    (fun (case, stats) ->
      List.iter
        (fun (n, v) -> Printf.bprintf b "%s\t%s\t%d\n" case n v)
        stats)
    cases;
  Buffer.contents b

let check_against_file actual =
  match Hth.Golden.compare_file ~golden:"counters.expected" ~actual with
  | Ok () -> ()
  | Error report ->
    Out_channel.with_open_bin "counters.actual" (fun oc ->
        output_string oc actual);
    Alcotest.failf "%s\n(full rendering written to counters.actual)" report

let sessions_case =
  Alcotest.test_case "session counter diffs match the expected file" `Quick
    (fun () ->
      let one = batch 1 and two = batch 2 in
      Alcotest.(check (list (pair string int)))
        "batch totals equal at jobs 1 and 2" one two;
      check_against_file (render (cases () @ [ "batch", one ])))

let suite = [ sessions_case ]
