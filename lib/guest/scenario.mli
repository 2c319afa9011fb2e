(** Experiment scenarios: a session setup plus the expected verdict.

    Each table of the paper's evaluation (Section 8) is a list of
    scenarios; the bench harness runs them and compares HTH's verdict
    with the expectation. *)

type expected =
  | Benign  (** no warning should fire *)
  | Malicious of Secpert.Severity.t  (** expected {e maximum} severity *)

type t = {
  sc_name : string;  (** e.g. ["Hardcode"] (Table 4 row) *)
  sc_group : string;  (** e.g. ["table4"] *)
  sc_descr : string;
  sc_setup : Hth.Session.setup;
  sc_expected : expected;
}

val make :
  name:string -> group:string -> descr:string -> expected:expected ->
  Hth.Session.setup -> t

(** A corpus entry before it is built: its metadata as plain data, and
    a memoised function that builds its images and setup.  Listing a
    corpus reads specs only; running one entry builds that entry
    alone. *)
type spec = private {
  sp_name : string;
  sp_group : string;
  sp_descr : string;
  sp_expected : expected;
  sp_resolve : unit -> t;  (** see {!resolve} *)
}

(** [define ~name ~group ~descr ~expected build] is a spec whose setup
    is [build ()], called on first {!resolve}. *)
val define :
  name:string -> group:string -> descr:string -> expected:expected ->
  (unit -> Hth.Session.setup) -> spec

(** [resolve sp] builds [sp]'s scenario on the first call, from any
    domain or thread, and returns the physically same value on every
    later call — so engines' link caches, keyed by physical equality of
    the program list, keep hitting across lookups. *)
val resolve : spec -> t

val expected_label : expected -> string

(** [matches expected verdict] — exact severity agreement (the tables
    grade classification, not mere detection). *)
val matches : expected -> Hth.Report.verdict -> bool

(** [run sc] executes the scenario under the default configuration. *)
val run : ?monitor_config:Harrier.Monitor.config -> t -> Hth.Session.result

(** [passes sc] runs and checks the verdict. *)
val passes : t -> bool
