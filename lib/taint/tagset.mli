(** Sets of data sources.

    A tag is the set of data sources that contributed to a value.  Data
    producing instructions assign the destination the {e union} of the
    sources of their operands (Section 7.3.1): after [add %ebx, %eax] the
    tag of [%eax] is the union of the tags of [%ebx] and [%eax].

    Tag sets are hash-consed inside an explicit {!space} holding the
    intern and union-memo tables.  Allocating operations take the space
    as their first argument; read-only interrogations need none.  Tag
    sets created in different spaces must not be mixed in one
    computation: contents stay correct, but [equal] (pointer equality)
    only holds within a space. *)

type t

(** A hash-consing arena: intern table, singleton cache, and
    binary-union memo.  Create one per session for byte-reproducible
    cache statistics, or share one across sessions for warmth.  See
    {!Space} for the public constructor. *)
type space

(** A fresh, empty space (the canonical {!empty} node is pre-seeded). *)
val make_space : unit -> space

(** Work counts accumulated in a space since it was last settled (see
    {!Space.settle}): the arena's own intern and union-memo traffic,
    plus the [harrier.shadow.*] accesses of every shadow memory built
    over the space.  Plain fields, so counting costs one increment
    rather than an {!Obs} domain-local lookup.  [shadow_pages_live] is
    a gauge delta and may be negative. *)
type counts = {
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable shadow_loads : int;
  mutable shadow_stores : int;
  mutable shadow_refused : int;
  mutable shadow_degraded : int;
  mutable shadow_pages_live : int;
}

(** [counts sp] is [sp]'s (mutable) count record. *)
val counts : space -> counts

(** [reset_space sp] returns [sp] to the freshly-created state: interning
    decisions and cache counters after a reset are identical to those of
    a new space, so pools can recycle spaces without perturbing per-run
    statistics.  Tag sets interned before the reset remain valid for
    read-only interrogation, but must not be mixed with post-reset tags
    (the usual cross-space rule). *)
val reset_space : space -> unit

(** The empty tag: a value with no known external provenance.  A single
    immutable node shared by every space. *)
val empty : t

val is_empty : t -> bool

val singleton : space -> Source.t -> t

val of_list : space -> Source.t list -> t

val to_list : t -> Source.t list

val add : space -> Source.t -> t -> t

(** [union sp a b] combines provenance, as performed by every
    data-producing instruction on its operand tags. *)
val union : space -> t -> t -> t

val mem : Source.t -> t -> bool

(** Constant time: tag sets are hash-consed, so equality is a pointer
    comparison (within one space). *)
val equal : t -> t -> bool

(** A total order consistent with [equal] (the interning order), for use
    as a dictionary key.  Constant time; {e not} the subset order. *)
val compare : t -> t -> int

(** [id t] is the unique intern identifier of [t] within its space.
    [id a = id b] iff [equal a b], for tags of the same space. *)
val id : t -> int

(** Number of distinct tag sets interned in the space so far, including
    the pre-seeded empty node (diagnostics). *)
val interned_count : space -> int

val cardinal : t -> int

(** [exists p t] is true iff some source in [t] satisfies [p]. *)
val exists : (Source.t -> bool) -> t -> bool

val filter : space -> (Source.t -> bool) -> t -> t

val fold : (Source.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Convenience interrogations used throughout the policy. *)

val has_user_input : t -> bool

val has_hardware : t -> bool

(** [binaries t] is the list of image names appearing as BINARY sources. *)
val binaries : t -> string list

(** [files t] is the list of file names appearing as FILE sources. *)
val files : t -> string list

(** [sockets t] is the list of peer addresses appearing as SOCKET
    sources. *)
val sockets : t -> string list

val pp : Format.formatter -> t -> unit

val to_string : t -> string
