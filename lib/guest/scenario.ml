type expected =
  | Benign
  | Malicious of Secpert.Severity.t

type t = {
  sc_name : string;
  sc_group : string;
  sc_descr : string;
  sc_setup : Hth.Session.setup;
  sc_expected : expected;
}

let make ~name ~group ~descr ~expected setup =
  { sc_name = name; sc_group = group; sc_descr = descr; sc_setup = setup;
    sc_expected = expected }

type spec = {
  sp_name : string;
  sp_group : string;
  sp_descr : string;
  sp_expected : expected;
  sp_resolve : unit -> t;
}

let define ~name ~group ~descr ~expected build =
  { sp_name = name; sp_group = group; sp_descr = descr;
    sp_expected = expected;
    sp_resolve =
      Memo.once (fun () -> make ~name ~group ~descr ~expected (build ())) }

let resolve sp = sp.sp_resolve ()

let expected_label = function
  | Benign -> "benign"
  | Malicious s -> Fmt.str "suspicious[%s]" (Secpert.Severity.label s)

let matches expected (verdict : Hth.Report.verdict) =
  match expected, verdict with
  | Benign, Hth.Report.Benign -> true
  | Malicious s, Hth.Report.Suspicious s' -> Secpert.Severity.equal s s'
  | (Benign | Malicious _), _ -> false

let run ?monitor_config sc = Hth.Session.run ?monitor_config sc.sc_setup

let passes sc = matches sc.sc_expected (Hth.Report.verdict (run sc))
