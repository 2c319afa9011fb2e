(** A taint hash-consing arena.

    Holds the intern table, singleton cache and binary-union memo used
    by every allocating {!Tagset} operation.  Sessions that need
    byte-reproducible cache statistics create a fresh space each run;
    corpus drivers that prefer warm caches can share one space across
    sessions (trading reproducibility of the [taint.*] counters).

    Tag sets from different spaces must never be mixed in one
    computation: contents stay correct, but pointer equality (and the
    union memo) only hold within a space. *)

type t = Tagset.space

(** A fresh, empty space.  [Tagset.empty] is pre-seeded (id 0); new tag
    sets are interned from id 1 up, deterministically in creation
    order. *)
val create : unit -> t

(** Number of distinct tag sets interned so far, including the empty
    node (diagnostics). *)
val interned : t -> int

(** [reset sp] returns [sp] to the freshly-created state — identical
    interning decisions and cache counters to a new space, so pools can
    recycle spaces.  Tag sets interned before the reset stay valid for
    read-only use but must not be mixed with post-reset tags. *)
val reset : t -> unit

(** [settle sp] adds the work counted in [sp] since the last settle
    ({!Tagset.counts}) to the [taint.*], [harrier.shadow.*] and
    [harrier.degraded] Obs counters of the calling domain, and zeroes
    the counts.  The session engine settles once per session, before it
    reads an Obs snapshot. *)
val settle : t -> unit
