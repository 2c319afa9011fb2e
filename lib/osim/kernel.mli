(** The simulated kernel: loader, scheduler and syscall dispatch.

    The kernel owns the filesystem, the network, the process table and
    the global tick counter (time = instructions executed, the paper's
    event timestamp).  A {!monitor} — Harrier, in the full framework —
    observes image loads, process starts, forks and system calls, and may
    decide to kill a process when the user rejects a warning. *)

(** The monitor's verdict before a syscall executes. *)
type decision = Allow | Kill

(** Monitor callbacks.  All fields are mutable so the monitor can be wired
    after the kernel is created (the kernel and monitor reference each
    other). *)
type monitor = {
  mutable on_process_start : Process.t -> unit;
      (** fired after the machine is set up (initial stack in place) and
          before image-load notifications *)
  mutable on_image_load : Process.t -> Binary.Image.t -> unit;
  mutable on_pre_syscall : Process.t -> Syscall.t -> decision;
  mutable on_post_syscall : Process.t -> Syscall.t -> result:int -> unit;
  mutable on_fork : parent:Process.t -> child:Process.t -> unit;
}

(** A monitor that observes nothing and allows everything. *)
val null_monitor : unit -> monitor

type t

(** Absolute top of the initial stack; argv/env strings live in
    [esp, stack_top) at process start and are tagged USER_INPUT by the
    monitor. *)
val stack_top : int

(** [create ~fs ~net ()] builds a world.  [hooks] is installed on every
    machine (the monitor mutates its fields); [user_input] scripts the
    bytes read from stdin; [quantum] is the scheduler time slice in
    instructions; [max_procs] bounds the process table ([fork] then fails
    with EAGAIN, taming fork bombs); [fault] injects deterministic
    syscall faults (default {!Fault.none}) — every injection is counted
    under [osim.faults.injected.<kind>] and emitted as an [Obs.Trace]
    "fault" event. *)
val create :
  ?quantum:int ->
  ?max_procs:int ->
  ?monitor:monitor ->
  ?hooks:Vm.Machine.hooks ->
  ?user_input:string list ->
  ?fault:Fault.plan ->
  fs:Fs.t ->
  net:Net.t ->
  unit ->
  t

val fs : t -> Fs.t

val net : t -> Net.t

val monitor : t -> monitor

val hooks : t -> Vm.Machine.hooks

(** [ticks k] is the world clock: total instructions executed. *)
val ticks : t -> int

val processes : t -> Process.t list

(** [live_count k] is the number of non-terminated processes. *)
val live_count : t -> int

(** [clone_total k] counts successful forks since creation. *)
val clone_total : t -> int

(** [console k] is everything guests wrote to stdout/stderr so far. *)
val console : t -> string

(** [spawn k ~path ~argv] loads the executable at [path] (plus needed
    shared objects), sets up the initial stack (argv and [env] strings,
    all tagged USER_INPUT by the monitor) and schedules the new
    process.  [images] supplies the pre-linked image closure for [path]
    (see {!link_closure}), skipping the per-spawn link entirely; it must
    be what [link_closure] over the world's installed programs returns
    for [path]. *)
val spawn :
  ?env:string list -> ?images:Binary.Image.t list -> t -> path:string ->
  argv:string list -> (Process.t, string) result

(** [link_closure available path] resolves [path]'s needed-closure out
    of [available] and links every member, exactly as spawning [path]
    in a world whose programs are [available] would.  Linked images are
    immutable and linking is deterministic, so the result can be cached
    and passed to {!spawn} by engines that run many sessions over the
    same program set. *)
val link_closure :
  Binary.Image.t list -> string -> (Binary.Image.t list, string) result

type report = {
  rep_ticks : int;
  rep_console : string;
  rep_final : (int * string * Process.run_state) list;
      (** (pid, executable path, final state) *)
  rep_clones : int;
  rep_max_live : int;
}

(** [run k ~max_ticks] drives the scheduler until every process
    terminates, the tick budget is exhausted, or the world deadlocks
    (remaining blocked processes are then reaped as killed). *)
val run : t -> max_ticks:int -> report

val pp_report : Format.formatter -> report -> unit
