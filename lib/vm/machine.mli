(** The virtual CPU: a process's architectural state plus instrumentation
    hooks.

    The machine plays the role PIN plays in the paper: it executes the
    guest instruction stream and exposes callbacks at instruction and
    basic-block granularity (Fig. 5 shows the analysis calls Pin inserts;
    here they are the [pre_insn] and [on_bb] hooks).  System calls are not
    executed by the machine — [step] returns [Syscall] and the simulated
    kernel takes over, exactly as [int $0x80] traps to the OS.

    Semantics notes (documented deviations from real x86, irrelevant to
    the policy):
    - every instruction occupies one address unit;
    - [movb] to a register zero-extends into the full register;
    - memory-to-memory [mov] is permitted;
    - [Div] traps on a zero divisor (fault, not SIGFPE). *)

type fault =
  | Bad_fetch of int  (** execution left all text segments *)
  | Bad_access of int  (** memory access outside the address space *)
  | Div_by_zero

type status = Running | Halted | Faulted of fault

(** Raised by memory accessors on out-of-range addresses; [step] catches
    it internally, but kernel-side accesses (string decoding) must handle
    it. *)
exception Fault_exn of fault

type t

(** A mapped text segment: the executable or one shared object. *)
type segment = {
  seg_base : int;
  seg_insns : Isa.Insn.t array;
  seg_image : string;  (** image path, e.g. ["/lib/libc.so"] *)
  seg_kind : Binary.Image.kind;
  seg_lens : int array;
      (** straight-line body lengths, from {!Binary.Image.t.blocks} *)
  seg_ops : (t -> unit) option array;
      (** compiled-instruction slots, lazily filled by {!step_block};
          shared by every machine mapping the same image *)
}

(** Instrumentation callbacks.  All default to no-ops ([on_block]
    defaults to refusing every block, i.e. pure interpretation). *)
type hooks = {
  mutable pre_insn : t -> int -> Isa.Insn.t -> unit;
      (** called with the address and instruction {e before} execution *)
  mutable on_bb : t -> int -> unit;
      (** called when control enters a basic block (leader address) *)
  mutable on_block : t -> segment -> int -> int -> bool;
      (** [on_block m seg addr len]: offered a straight-line body of
          [len] instructions at block leader [addr] before it runs.
          Return [true] to execute it as compiled closures with no
          per-instruction [pre_insn] calls — the hook owns whatever
          per-block bookkeeping (taint summary application) replaces
          them — or [false] to interpret as usual. *)
}

val no_hooks : unit -> hooks

(** Size of the flat per-process address space (1 MiB). *)
val mem_size : int

(** A recycling pool for address-space buffers.  [create]/[clone] draw
    from the pool when one is supplied (zeroing or overwriting the
    buffer, so behaviour is indistinguishable from fresh allocation);
    {!recycle_mem} returns a dead machine's buffer.  For callers that
    build many sequential worlds — allocating the 1 MiB space dominates
    small-machine setup. *)
type mem_pool

(** [mem_pool ?cap ()] is an empty pool retaining at most [cap]
    (default 16) free buffers. *)
val mem_pool : ?cap:int -> unit -> mem_pool

val create : ?hooks:hooks -> ?pool:mem_pool -> unit -> t

val hooks : t -> hooks

(** [clone ?pool m] duplicates the full architectural state ([fork]);
    text segments and hooks are shared. *)
val clone : ?pool:mem_pool -> t -> t

(** [recycle_mem pool m] returns [m]'s memory buffer to [pool].  [m]
    must never be used again: the buffer will be handed to a future
    machine.  Recycling the same machine twice is a no-op. *)
val recycle_mem : mem_pool -> t -> unit

val status : t -> status

val set_status : t -> status -> unit

val eip : t -> int

val set_eip : t -> int -> unit

val get_reg : t -> Isa.Reg.t -> int

(** [regs m] is [m]'s live register file, indexed by {!Isa.Reg.index}:
    read-only access for the taint summaries' per-block loop. *)
val regs : t -> int array

val set_reg : t -> Isa.Reg.t -> int -> unit

(** {2 Memory} *)

val read_byte : t -> int -> int

val write_byte : t -> int -> int -> unit

val read_word : t -> int -> int

val write_word : t -> int -> int -> unit

(** [read_bytes m addr len] copies [len] bytes out of guest memory. *)
val read_bytes : t -> int -> int -> string

val write_string : t -> int -> string -> unit

(** [read_cstring m addr] reads a NUL-terminated string (bounded by the
    address-space end). *)
val read_cstring : t -> int -> string

(** {2 Text segments} *)

(** [map_image m img] maps a linked image: registers its text segment and
    copies its data sections into memory. *)
val map_image : t -> Binary.Image.t -> unit

val segments : t -> segment list

val segment_at : t -> int -> segment option

val fetch : t -> int -> Isa.Insn.t option

(** {2 Operand access}

    Exposed so the taint-tracking monitor can compute exactly the
    locations the CPU is about to touch. *)

(** [eff_addr m ref] is the effective address of a memory reference under
    the current register values. *)
val eff_addr : t -> Isa.Operand.mem_ref -> int

(** [read_operand m size op] evaluates an operand. *)
val read_operand : t -> Isa.Insn.size -> Isa.Operand.t -> int

(** {2 Execution} *)

type outcome =
  | Continue  (** one instruction retired *)
  | Syscall of int  (** [Int n] executed; eip already advanced *)
  | Stopped of status  (** halted or faulted *)

(** [step m] executes one instruction, firing hooks. *)
val step : t -> outcome

(** [step_block m ~fuel] is the tiered dispatcher: at a basic-block
    start whose straight-line body has at most [fuel] instructions, the
    body is offered to the [on_block] hook and — if accepted — runs as
    compiled closures (one fused unit, no per-instruction hooks); in
    every other case exactly one instruction is interpreted via
    {!step}.  Equivalent to [fuel] iterated {!step}s up to the accepted
    per-block instrumentation.  Allocates nothing on the steady-state
    path: the retired count is read back with {!retired}. *)
val step_block : t -> fuel:int -> outcome

(** [retired m] is the number of instructions the last {!step} or
    {!step_block} retired, for quantum accounting: the body length for
    a compiled body (up to and including the faulting instruction on a
    mid-body fault), 1 for an interpreted step, 0 on an already-stopped
    machine. *)
val retired : t -> int

(** {2 Counters}

    The step loop counts [vm.instructions], [vm.blocks],
    [vm.fetch_cache.hits]/[misses] and [vm.blocks.decoded] into fields
    of the machine rather than into {!Obs}, whose [Counter.incr] costs
    a domain-local lookup.  [settle m] adds the counts accumulated since
    the last settle to the Obs counters and zeroes them.  The scheduler
    settles at every quantum boundary, so Obs totals are exact whenever
    no quantum is in flight.  A {!clone} starts with nothing
    unsettled. *)
val settle : t -> unit

val pp_fault : Format.formatter -> fault -> unit

val pp_status : Format.formatter -> status -> unit
