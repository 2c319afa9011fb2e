(** Compiled per-block taint transfer summaries.

    A summary is the executable form of an {!Isa.Block.flow}: one fused
    application updates the shadow state for a whole straight-line block
    — bounds-check every touched address, evaluate every entry-relative
    taint expression, apply the writes in program order — exactly as
    per-instruction {!Dataflow.step} calls would have.  Summaries are
    built once per promoted block and applied on every subsequent hot
    execution. *)

type t

(** [make ~space ~imm_tag flow] compiles [flow].  [imm_tag] is the
    BINARY provenance tag of the image the block lives in; [space] the
    arena all tag unions run in. *)
val make : space:Taint.Space.t -> imm_tag:Taint.Tagset.t -> Isa.Block.flow -> t

(** [apply s shadow m] applies the summary against [shadow] using [m]'s
    current (block-entry) register values for address evaluation, and
    returns [true].  It returns [false] (deopt) without touching
    [shadow] when an address fails its bounds precondition: the caller
    must then interpret this execution so the fault (or wrapped access)
    surfaces at exactly the right instruction.  Allocates nothing once
    the block's operand tags have stabilized.  Not re-entrant:
    summaries carry scratch state and are applied from one run at a
    time. *)
val apply : t -> Shadow.t -> Vm.Machine.t -> bool

(** [guard s] is, after an [apply] that returned [true], the tag of the
    last compare/test in the block that evaluated non-empty — the new
    trigger guard — or [Taint.Tagset.empty] when none did (the caller's
    guard is then unchanged). *)
val guard : t -> Taint.Tagset.t
