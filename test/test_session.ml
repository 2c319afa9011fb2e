(* Behavioural tests over full monitored sessions: the paper's reported
   transcripts, pattern derivation (Table 1), enforcement, and the
   Appendix B checker on real corpus images. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "missing corpus scenario %s" name

let run name = Hth.Session.run (find name).sc_setup

let warning_mentioning r needle =
  List.exists
    (fun w ->
      Astring.String.is_infix ~affix:needle (Secpert.Warning.to_string w))
    r.Hth.Session.warnings

(* --- paper transcripts (Section 8.3) ------------------------------- *)

let test_elm_transcript () =
  let r = run "ElmExploit" in
  check "warns about tmpmail" true (warning_mentioning r "tmpmail");
  (* the paper's miss: system()'s execve of /bin/sh is filtered *)
  check "no execve warning" false (warning_mentioning r "SYS_execve");
  (* ... but the event itself was observed, as the paper notes *)
  check "execve event exists" true
    (List.exists
       (function
         | Harrier.Events.Exec { path; _ } -> path.r_name = "/bin/sh"
         | _ -> false)
       r.events)

let test_grabem_transcript () =
  let r = run "grabem" in
  check "names .exrc%" true (warning_mentioning r ".exrc%");
  check "data from the binary" true
    (warning_mentioning r "BINARY:(\"/exploits/grabem\")")

let test_vixie_transcript () =
  let r = run "vixie crontab" in
  check "warns about ./Window" true (warning_mentioning r "./Window");
  check "warns about crontab exec" true
    (warning_mentioning r "/usr/bin/crontab")

let test_pma_transcript () =
  let r = run "pma" in
  let highs =
    List.filter
      (fun w -> w.Secpert.Warning.severity = Secpert.Severity.High)
      r.distinct
  in
  check "several High warnings" true (List.length highs >= 3);
  check "server address hardcoded line" true
    (warning_mentioning r "server with the address: LocalHost:11111");
  check "socket-to-pipe flow" true (warning_mentioning r "inpipe");
  check "pipe-to-socket flow" true (warning_mentioning r "outpipe")

let test_superforker_warnings () =
  let r = run "superforker" in
  check "file spray warning" true
    (warning_mentioning r "originated from a BINARY");
  check "clone frequency warning" true
    (warning_mentioning r "SYS_clone");
  check "medium rate warning" true
    (List.exists
       (fun w -> w.Secpert.Warning.severity = Secpert.Severity.Medium)
       r.warnings)

let test_mytob_remote_execve () =
  let r = run "W32.Mytob.J@mm" in
  check "IRC-commanded execve is High" true
    (List.exists
       (fun w ->
         w.Secpert.Warning.rule = "check_execve"
         && w.Secpert.Warning.severity = Secpert.Severity.High)
       r.warnings)

(* --- Table 1 pattern derivation ------------------------------------ *)

let test_patterns_lodeight () =
  let r = run "Trojan.Lodeight.A" in
  let p = Hth.Patterns.derive r in
  check "no user intervention" true p.no_user_intervention;
  check "remotely directed (backdoor accept)" true p.remotely_directed;
  check "hardcoded resources" true p.hardcoded_resources

let test_patterns_vundo_degrades () =
  let r = run "Trojan.Vundo" in
  let p = Hth.Patterns.derive r in
  check "degrading performance" true p.degrading_performance

let test_patterns_benign_program () =
  let r = run "pico" in
  let p = Hth.Patterns.derive r in
  check "user intervention seen" false p.no_user_intervention;
  check "not remotely directed" false p.remotely_directed

let test_patterns_row_rendering () =
  let p =
    { Hth.Patterns.no_user_intervention = true; remotely_directed = false;
      hardcoded_resources = true; degrading_performance = false }
  in
  Alcotest.(check (list string)) "marks" [ "x"; ""; "x"; "" ]
    (Hth.Patterns.row p)

(* --- report and verdicts -------------------------------------------- *)

let test_verdicts () =
  check "benign verdict" true
    (Hth.Report.equal_verdict Hth.Report.Benign
       (Hth.Report.verdict (run "User input")));
  check "labels" true
    (Hth.Report.verdict_label (Suspicious Secpert.Severity.High)
     = "suspicious[HIGH]");
  check "verdict inequality" false
    (Hth.Report.equal_verdict (Suspicious Secpert.Severity.Low)
       (Suspicious Secpert.Severity.High))

(* --- enforcement ----------------------------------------------------- *)

let test_auto_kill_stops_exfiltration () =
  let sc = find "pwsafe (trojaned)" in
  (* without enforcement the database reaches the attacker *)
  let observed = Hth.Session.run sc.sc_setup in
  check "exfiltration happened" true
    (List.exists
       (function
         | Harrier.Events.Transfer { target; _ } ->
           target.r_kind = Harrier.Events.R_socket
         | _ -> false)
       observed.events);
  (* with enforcement the process dies at the warning, before the send *)
  let enforced =
    Hth.Session.run ~auto_kill:Secpert.Severity.High sc.sc_setup
  in
  check "process killed" true
    (List.exists
       (fun (_, _, st) ->
         match st with Osim.Process.Killed _ -> true | _ -> false)
       enforced.os_report.rep_final)

(* --- thresholds are honoured ---------------------------------------- *)

let test_custom_thresholds () =
  (* with an absurdly high clone threshold the forker looks benign *)
  let sc = find "loop forker" in
  let thresholds =
    { Secpert.Context.default_thresholds with clone_count_low = 10_000;
      clone_rate_medium = 10_000 }
  in
  let r = Hth.Session.run ~thresholds sc.sc_setup in
  check_int "no clone warnings" 0 (List.length r.warnings)

(* --- Appendix B on corpus images ------------------------------------ *)

let image_of_scenario name =
  let sc = find name in
  List.find
    (fun (img : Binary.Image.t) -> String.equal img.path sc.sc_setup.main)
    sc.sc_setup.programs

let test_secure_binary_on_corpus () =
  check "exec_user is a Secure Binary" true
    (Hth.Secure_binary.is_secure (image_of_scenario "User input"));
  check "exec_hard is not" false
    (Hth.Secure_binary.is_secure (image_of_scenario "Hardcode"));
  let violations =
    Hth.Secure_binary.check (image_of_scenario "Hardcode")
  in
  (match violations with
   | [ v ] ->
     check "violation names execve" true (v.v_syscall = "SYS_execve")
   | _ -> Alcotest.fail "expected exactly one violation")

(* --- the whole corpus classifies correctly -------------------------- *)

let test_corpus_classification () =
  let failures =
    List.filter_map
      (fun (sc : Guest.Scenario.t) ->
        let r = Guest.Scenario.run sc in
        let v = Hth.Report.verdict r in
        if Guest.Scenario.matches sc.sc_expected v then None
        else
          Some
            (Fmt.str "%s: expected %s, got %s" sc.sc_name
               (Guest.Scenario.expected_label sc.sc_expected)
               (Hth.Report.verdict_label v)))
      Guest.Corpus.all
  in
  if failures <> [] then
    Alcotest.failf "misclassified:\n%s" (String.concat "\n" failures)

(* --- monitoring transparency ----------------------------------------- *)

let test_monitor_transparency () =
  (* the monitor must not perturb guest-visible behaviour: console
     output and final process states agree with an unmonitored run *)
  List.iter
    (fun name ->
      let sc = find name in
      let monitored = (Hth.Session.run sc.sc_setup).os_report in
      let bare = Hth.Session.run_unmonitored sc.sc_setup in
      Alcotest.(check string)
        (name ^ ": console identical")
        bare.rep_console monitored.rep_console;
      check_int
        (name ^ ": same number of processes")
        (List.length bare.rep_final)
        (List.length monitored.rep_final);
      List.iter2
        (fun (_, _, s1) (_, _, s2) ->
          Alcotest.(check string)
            (name ^ ": process states identical")
            (Fmt.to_to_string Osim.Process.pp_state s1)
            (Fmt.to_to_string Osim.Process.pp_state s2))
        bare.rep_final monitored.rep_final)
    [ "grabem"; "pma"; "column"; "wc"; "Tic Tac Toe (trojaned)";
      "File->Socket: Hardcoded, Hardcoded" ]

let test_report_rendering () =
  let r = run "grabem" in
  let text = Fmt.to_to_string (Hth.Report.pp_result ~verbose:true) r in
  check "mentions verdict" true
    (Astring.String.is_infix ~affix:"suspicious[HIGH]" text);
  check "verbose includes events" true
    (Astring.String.is_infix ~affix:"events (" text)

let test_corpus_scale () =
  check "corpus has at least 55 scenarios" true
    (List.length Guest.Corpus.all >= 55)

let test_corpus_names_unique () =
  let names = Guest.Corpus.names in
  check_int "no duplicate scenario names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* The Section 9 workload declares the verdict the policy gives it at
   every size: HIGH, from check_write's FILE->FILE name matrix. *)
let test_perf_workload_verdict () =
  List.iter
    (fun iters ->
      let sc = Guest.Perf_workload.scenario ~iters in
      check (Fmt.str "perf workload matches at iters %d" iters) true
        (Guest.Scenario.passes sc))
    [ 2; 100 ]

(* write(fd, buf, 0xFFFFFFFF): the monitor's pre-syscall hook reads the
   buffer's taint with the guest's raw length before the kernel faults
   the call.  The expected verdict, warning and transfer event are
   those a shadow that walked every 4 KiB page of the length reported.
   The read stops at the end of the 1 MiB space, at most 256 page
   visits, so twenty sessions take a few milliseconds of CPU; walking
   the length took ~20 ms a session (x86_64, 2 vCPUs). *)
let test_unbounded_write_length () =
  let exe =
    let u = Asm.create ~path:"/bin/w" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "dst" "/out";
    Asm.space u "fd" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_read u ~fd:(Asm.imm 0) ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 16);
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 0xFFFFFFFF);
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let setup =
    Hth.Session.setup ~programs:[ exe ] ~user_input:[ "0123456789abcdef" ]
      ~main:"/bin/w" ()
  in
  let r = Hth.Session.run setup in
  Alcotest.(check string) "verdict" "suspicious[HIGH]"
    (Fmt.to_to_string Hth.Report.pp_verdict (Hth.Report.verdict r));
  Alcotest.(check (list string)) "warnings"
    [ "Warning [HIGH] Found Write call to /out\n\
       \tThe Data written to this file is originated from the \
       BINARY:(\"/bin/w\")\n\
       \tMoreover, it seems that the name of the file: /out originated \
       from a BINARY: (\"/bin/w\")" ]
    (List.map Secpert.Warning.to_string r.warnings);
  (match
     List.find_map
       (function
         | Harrier.Events.Transfer { data; len; _ } -> Some (data, len)
         | _ -> None)
       r.events
   with
   | Some (data, len) ->
     check_int "raw guest length" 0xFFFFFFFF len;
     check "the buffer's user input" true (Taint.Tagset.has_user_input data);
     Alcotest.(check (list string)) "and the data sections above it"
       [ "/bin/w" ] (Taint.Tagset.binaries data)
   | None -> Alcotest.fail "no transfer event");
  (match r.os_report.rep_final with
   | [ (1, "/bin/w", Osim.Process.Killed why) ] ->
     check "the kernel faults the call" true
       (Astring.String.is_prefix ~affix:"syscall fault" why)
   | _ -> Alcotest.fail "unexpected final states");
  let t0 = Sys.time () in
  for _ = 1 to 20 do ignore (Hth.Session.run setup) done;
  check "twenty sessions in under 0.2 s of CPU" true (Sys.time () -. t0 < 0.2)

(* Two domains resolving one scenario at once both get the physically
   same value, built once: a fresh spec whose build function counts its
   calls (and dawdles, to widen the race), and a corpus lookup by
   name. *)
let test_registry_concurrent_find () =
  let builds = Atomic.make 0 in
  let sp =
    Guest.Scenario.define ~name:"race" ~group:"test" ~descr:"race"
      ~expected:Guest.Scenario.Benign (fun () ->
        Atomic.incr builds;
        Unix.sleepf 0.01;
        (Guest.Perf_workload.scenario ~iters:1).sc_setup)
  in
  let go = Atomic.make false in
  let both f =
    let d =
      Domain.spawn (fun () ->
          while not (Atomic.get go) do Domain.cpu_relax () done;
          f ())
    in
    Atomic.set go true;
    let mine = f () in
    mine, Domain.join d
  in
  let a, b = both (fun () -> Guest.Scenario.resolve sp) in
  check "spec resolves to one value" true (a == b);
  check_int "build ran once" 1 (Atomic.get builds);
  Atomic.set go false;
  let a, b = both (fun () -> Guest.Registry.find "superforker") in
  match a, b with
  | Some a, Some b ->
    check "registry finds one value" true (a == b);
    check "registry and corpus agree" true
      (match Guest.Corpus.find "superforker" with
       | Some c -> c == a
       | None -> false)
  | _ -> Alcotest.fail "superforker not found"

let suite =
  [ Alcotest.test_case "ElmExploit transcript (incl. the miss)" `Quick
      test_elm_transcript;
    Alcotest.test_case "grabem transcript" `Quick test_grabem_transcript;
    Alcotest.test_case "vixie transcript" `Quick test_vixie_transcript;
    Alcotest.test_case "pma transcript" `Quick test_pma_transcript;
    Alcotest.test_case "superforker warnings" `Quick
      test_superforker_warnings;
    Alcotest.test_case "mytob remote execve" `Quick
      test_mytob_remote_execve;
    Alcotest.test_case "patterns: lodeight" `Quick test_patterns_lodeight;
    Alcotest.test_case "patterns: vundo degrades" `Quick
      test_patterns_vundo_degrades;
    Alcotest.test_case "patterns: benign program" `Quick
      test_patterns_benign_program;
    Alcotest.test_case "patterns: row rendering" `Quick
      test_patterns_row_rendering;
    Alcotest.test_case "report verdicts" `Quick test_verdicts;
    Alcotest.test_case "auto-kill stops exfiltration" `Quick
      test_auto_kill_stops_exfiltration;
    Alcotest.test_case "custom thresholds" `Quick test_custom_thresholds;
    Alcotest.test_case "secure binary on corpus images" `Quick
      test_secure_binary_on_corpus;
    Alcotest.test_case "whole corpus classifies correctly" `Slow
      test_corpus_classification;
    Alcotest.test_case "corpus names unique" `Quick
      test_corpus_names_unique;
    Alcotest.test_case "monitoring transparency" `Quick
      test_monitor_transparency;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "corpus scale" `Quick test_corpus_scale;
    Alcotest.test_case "write of a 4 GiB guest length" `Quick
      test_unbounded_write_length;
    Alcotest.test_case "perf workload verdict at two sizes" `Quick
      test_perf_workload_verdict;
    Alcotest.test_case "registry: concurrent find" `Quick
      test_registry_concurrent_find ]
