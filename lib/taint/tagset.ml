(* Hash-consed tag sets.

   Every distinct set of sources is interned exactly once into a node
   carrying a unique integer id, so [equal]/[compare] are id (indeed
   pointer) comparisons and [is_empty] is a pointer check against the
   interned empty node.  A memoized binary-union cache keyed on id pairs
   makes the union-per-instruction performed by [Harrier.Dataflow.step]
   allocation-free on the (overwhelmingly common) repeated-operand case.

   The intern and memo tables live in an explicit [space] rather than in
   process globals: a session that wants byte-reproducible statistics
   creates a fresh space, while a corpus run that wants maximum cache
   warmth can share one space across sessions.  The only process-global
   value is the canonical [empty] node (id 0), which is immutable and
   pre-seeded into every space, so [is_empty]/[equal] stay pointer
   checks and [empty] needs no space in hand.  Tag sets from different
   spaces must not be mixed in one computation: contents stay correct,
   but pointer equality only holds within a space. *)

module S = Set.Make (Source)

type t = { id : int; set : S.t }

(* Intern table, keyed by the canonical (sorted, deduplicated) element
   list of the set. *)
module Key = struct
  type t = Source.t list

  let equal = List.equal (fun a b -> Source.compare a b = 0)
  let hash = Hashtbl.hash
end

module Intern = Hashtbl.Make (Key)

(* Binary-union memo: a direct-mapped cache keyed on the (ordered) id
   pair packed into one int, so a hit is an array read plus an integer
   compare — no hashing, no allocation.  Ids are dense and small, so
   the packing is injective in practice; collisions just overwrite the
   slot and recompute later. *)
let memo_bits = 14
let memo_mask = (1 lsl memo_bits) - 1

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

type space = {
  intern_tbl : t Intern.t;
  mutable next_id : int;
  singleton_tbl : (Source.t, t) Hashtbl.t;
  memo_keys : int array;
  memo_vals : t array;
  counts : counts;
}

(* The canonical empty node, shared by every space.  Immutable; id 0 is
   reserved for it (spaces allocate ids from 1). *)
let empty = { id = 0; set = S.empty }

let make_space () =
  let sp =
    { intern_tbl = Intern.create 509;
      next_id = 1;
      singleton_tbl = Hashtbl.create 64;
      memo_keys = Array.make (1 lsl memo_bits) (-1);
      memo_vals = Array.make (1 lsl memo_bits) empty;
      counts =
        { intern_hits = 0; intern_misses = 0; memo_hits = 0;
          memo_misses = 0; shadow_loads = 0; shadow_stores = 0;
          shadow_refused = 0; shadow_degraded = 0; shadow_pages_live = 0 } }
  in
  Intern.add sp.intern_tbl [] empty;
  sp

(* Return a space to the freshly-created state.  Only [memo_keys] needs
   refilling: a packed id pair is never [-1], so clearing the keys makes
   every stale [memo_vals] entry unreachable without touching the boxed
   array (new unions overwrite slots as they miss).  A reset space is
   indistinguishable from [make_space ()] — same interning decisions,
   same cache counters — which lets an engine pool spaces across
   sessions without perturbing per-run statistics.  Unsettled [counts]
   are left alone: they record work already done. *)
let reset_space sp =
  Intern.reset sp.intern_tbl;
  Hashtbl.reset sp.singleton_tbl;
  sp.next_id <- 1;
  Array.fill sp.memo_keys 0 (Array.length sp.memo_keys) (-1);
  (* also drop the stale values: a pooled space must not keep the
     previous session's tag sets (and their element sets) alive *)
  Array.fill sp.memo_vals 0 (Array.length sp.memo_vals) empty;
  Intern.add sp.intern_tbl [] empty

let intern sp set =
  let key = S.elements set in
  match Intern.find_opt sp.intern_tbl key with
  | Some t ->
    sp.counts.intern_hits <- sp.counts.intern_hits + 1;
    t
  | None ->
    sp.counts.intern_misses <- sp.counts.intern_misses + 1;
    let t = { id = sp.next_id; set } in
    sp.next_id <- sp.next_id + 1;
    Intern.add sp.intern_tbl key t;
    t

let interned_count sp = sp.next_id

let counts sp = sp.counts

let[@inline] is_empty t = t == empty

let[@inline] id t = t.id

(* Interning makes structural equality pointer equality. *)
let[@inline] equal a b = a == b

let[@inline] compare a b = Int.compare a.id b.id

let singleton sp s =
  match Hashtbl.find_opt sp.singleton_tbl s with
  | Some t -> t
  | None ->
    let t = intern sp (S.singleton s) in
    Hashtbl.add sp.singleton_tbl s t;
    t

let of_list sp l = intern sp (S.of_list l)

let to_list t = S.elements t.set

let add sp s t = if S.mem s t.set then t else intern sp (S.add s t.set)

let union sp a b =
  if a == b then a
  else if a == empty then b
  else if b == empty then a
  else begin
    let packed =
      if a.id < b.id then (a.id lsl 31) lor b.id else (b.id lsl 31) lor a.id
    in
    (* low bits hold one id, bits 31+ the other; fold them together *)
    let h = (packed lxor (packed lsr 29)) land memo_mask in
    if sp.memo_keys.(h) = packed then begin
      sp.counts.memo_hits <- sp.counts.memo_hits + 1;
      sp.memo_vals.(h)
    end
    else begin
      sp.counts.memo_misses <- sp.counts.memo_misses + 1;
      let r = intern sp (S.union a.set b.set) in
      sp.memo_keys.(h) <- packed;
      sp.memo_vals.(h) <- r;
      r
    end
  end

let mem s t = S.mem s t.set
let cardinal t = S.cardinal t.set
let exists p t = S.exists p t.set

let filter sp p t =
  let set = S.filter p t.set in
  if set == t.set then t else intern sp set

let fold f t acc = S.fold f t.set acc

let has_user_input t = S.mem User_input t.set
let has_hardware t = S.mem Hardware t.set

let select f t =
  S.fold (fun s acc -> match f s with Some x -> x :: acc | None -> acc) t.set []

let binaries t =
  select (function Source.Binary n -> Some n | _ -> None) t |> List.rev

let files t =
  select (function Source.File n -> Some n | _ -> None) t |> List.rev

let sockets t =
  select (function Source.Socket n -> Some n | _ -> None) t |> List.rev

let pp ppf t =
  Fmt.pf ppf "@[<h>{%a}@]" Fmt.(list ~sep:(any ", ") Source.pp) (to_list t)

let to_string = Fmt.to_to_string pp
