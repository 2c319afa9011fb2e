(* Offline replay from the JSONL trace: every "flow" line decodes back
   into the Harrier event the session emitted, and Secpert re-judges
   the decoded stream.  Runs against the committed goldens, so a
   lossy change to the flow-line codec fails here first. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let reader_of s =
  match Forensics.Reader.of_string s with
  | Ok t -> t
  | Error m -> Alcotest.fail m

let events_of trace =
  match Forensics.Reader.events trace with
  | Ok events -> events
  | Error e -> Alcotest.failf "%a" Forensics.Reader.pp_decode_error e

let golden_files () =
  Sys.readdir "golden" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort String.compare
  |> List.map (Filename.concat "golden")

(* Events recorded through a buffer sink, then read back. *)
let recorded events =
  let buf = Buffer.create 1024 in
  Obs.Trace.to_buffer buf;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      List.iter
        (fun e -> Obs.Trace.emit "flow" (Harrier.Events.to_fields e))
        events);
  reader_of (Buffer.contents buf)

let test_roundtrip_session () =
  (* the live session's own trace decodes to the session's events *)
  let sc = Option.get (Guest.Corpus.find "pma") in
  let buf = Buffer.create 4096 in
  let r =
    Hth.Session.run ~trace:(Obs.Trace.buffer_target buf) sc.sc_setup
  in
  let decoded = events_of (reader_of (Buffer.contents buf)) in
  check_int "event count preserved" (List.length r.events)
    (List.length decoded);
  List.iter2
    (fun (live : Harrier.Events.t) (back : Harrier.Events.t) ->
      check_int "step preserved" (Harrier.Events.meta_of live).step
        (Harrier.Events.meta_of back).step;
      check "fields preserved" true
        (Harrier.Events.to_fields live = Harrier.Events.to_fields back))
    r.events decoded

let test_roundtrip_binary_head () =
  (* heads carry raw executable bytes; names can carry separators *)
  let sp = Taint.Space.create () in
  let head = "MZ\x90\x00\x01\xFF\n\t\"quoted\"%,;<-" in
  let name = "h:1,%;<-\xC3" in
  let e =
    Harrier.Events.Transfer
      { call = "SYS_write";
        data = Taint.Tagset.singleton sp (Taint.Source.Socket name);
        head;
        sources = [ Taint.Source.Socket name, Taint.Tagset.empty ];
        guard = [];
        target =
          { r_kind = Harrier.Events.R_file; r_name = "/t";
            r_origin = Taint.Tagset.empty };
        via_server = None; len = 10;
        meta = { pid = 1; time = 2; freq = 3; addr = 4; step = 0 } }
  in
  match Forensics.Reader.events (recorded [ e ]) with
  | Ok [ (Harrier.Events.Transfer t as back) ] ->
    Alcotest.(check string) "binary head survives" head t.head;
    check "whole event survives" true
      (Harrier.Events.to_fields e = Harrier.Events.to_fields back)
  | Ok _ -> Alcotest.fail "wrong event shape"
  | Error e -> Alcotest.failf "%a" Forensics.Reader.pp_decode_error e

(* For each committed golden, replay under the native policy reproduces
   the golden's own "warning" lines, in order and field for field. *)
let test_replay_reproduces_goldens () =
  let files = golden_files () in
  check_int "every golden scenario has a committed trace"
    (List.length Test_golden.golden_scenarios)
    (List.length files);
  List.iter
    (fun file ->
      let trace = reader_of (read_file file) in
      let live =
        List.filter_map
          (fun (e : Forensics.Reader.entry) ->
            if e.ev <> "warning" then None
            else
              Some
                (Obs.render
                   (List.filter
                      (fun (k, _) -> k <> "step" && k <> "ev")
                      e.fields)))
          (Forensics.Reader.entries trace)
      in
      let replayed =
        List.map
          (fun w -> Obs.render (Secpert.Warning.to_fields w))
          (Secpert.System.replay (events_of trace))
      in
      Alcotest.(check (list string)) (file ^ ": warnings") live replayed)
    files

let test_replay_with_different_policy () =
  (* offline re-judging: replay an old trace under a new configuration *)
  let events = events_of (reader_of (read_file "golden/ElmExploit.jsonl")) in
  let fired ws =
    List.exists (fun w -> w.Secpert.Warning.rule = "check_execve") ws
  in
  check "default trust misses the exec" false
    (fired (Secpert.System.replay events));
  check "re-judged without trust catches it" true
    (fired (Secpert.System.replay ~trust:Secpert.Trust.nothing events))

let test_bad_traces_rejected () =
  let flow rest =
    {|{"step":7,"ev":"flow","kind":"access","pid":1,"tick":2,"freq":1,"addr":9|}
    ^ rest ^ "}"
  in
  List.iter
    (fun bad ->
      match Forensics.Reader.events (reader_of bad) with
      | Error e -> check_int (bad ^ ": error names the step") 7 e.de_step
      | Ok _ -> Alcotest.failf "accepted bad trace %S" bad)
    [ (* missing fields *)
      flow "";
      flow {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f"|};
      (* wrong field type, unknown kinds *)
      flow {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f","origin":3|};
      flow {|,"call":"SYS_open","res_kind":"PIPE","res_name":"/f","origin":""|};
      {|{"step":7,"ev":"flow","kind":"fork","pid":1,"tick":2,"freq":1,"addr":9}|};
      (* bad tag-set encodings *)
      flow {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f","origin":"DISK:/x"|};
      flow {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f","origin":"FILE:%4"|};
      flow {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f","origin":"FILE:%zz"|};
      (* a flow line written before flow lines were lossless *)
      flow
        {|,"call":"SYS_open","res_kind":"FILE","res_name":"/f","origin":"{BINARY(\"/b\")}"|}
    ]

let test_empty_trace () =
  match Forensics.Reader.events (reader_of "") with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom events"
  | Error e -> Alcotest.failf "%a" Forensics.Reader.pp_decode_error e

let suite =
  [ Alcotest.test_case "session trace round trip" `Quick
      test_roundtrip_session;
    Alcotest.test_case "binary head round trip" `Quick
      test_roundtrip_binary_head;
    Alcotest.test_case "replay reproduces golden warnings" `Quick
      test_replay_reproduces_goldens;
    Alcotest.test_case "offline re-judging with new policy" `Quick
      test_replay_with_different_policy;
    Alcotest.test_case "bad traces rejected" `Quick
      test_bad_traces_rejected;
    Alcotest.test_case "empty trace" `Quick test_empty_trace ]
