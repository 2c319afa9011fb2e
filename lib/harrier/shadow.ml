(* Paged shadow memory.

   Memory tags live in fixed-size pages of tag-set arrays, one slot per
   4 KiB page of the guest's 1 MiB address space — the page table of
   [Vm.Machine]'s guest memory, with the same shape: a flat array whose
   unmapped slots hold the shared, never-written [no_page].  A page is
   allocated on the first non-empty store into it and reclaimed when its
   last tagged byte is cleared, so untainted regions cost nothing to
   read and [range]/[set_range] touch whole page runs.  Every access is
   clamped to the address space first, so the page index needs no
   further check and the work of one call is bounded by the 256 slots.
   Tag sets are hash-consed ([Taint.Tagset.equal] is pointer equality),
   which the range scan exploits: a run of bytes carrying the same tag —
   the common case after a [set_range] — costs one pointer comparison
   per byte and no unions. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let mem_size = Vm.Machine.mem_size
let n_slots = mem_size lsr page_bits

type page = {
  data : Taint.Tagset.t array;
  mutable live : int;  (* number of non-empty slots; > 0 while mapped *)
}

(* The slot of every unmapped page, never written: a read tests for it
   before indexing (a page of empty tags would cost 32 KB at start-up
   in every process). *)
let no_page = { data = [||]; live = 0 }

type t = {
  space : Taint.Space.t;  (* hash-consing arena for every union below *)
  cnt : Taint.Tagset.counts;  (* the space's counts: accesses land here *)
  regs : Taint.Tagset.t array;
  pages : page array;  (* [n_slots] slots; [no_page] where unmapped *)
  mutable n_live : int;  (* slots not holding [no_page] *)
  budget : int;  (* max live pages before saturation (max_int = none) *)
  mutable overflow : Taint.Tagset.t;
      (* union of every tag whose store was refused; once non-empty the
         shadow is degraded and every read is widened by this set —
         conservative over-tainting, taint is never lost *)
  mutable tagged : int;  (* total non-empty bytes across pages *)
}

(* Counting goes to the space's count record, settled into Obs by the
   session engine ({!Taint.Space.settle}): [shadow_loads] per range
   read (a one-byte read is a range of one), [shadow_stores] per store,
   [shadow_refused] per refused store, [shadow_degraded] once per
   shadow that crosses into saturation, and [shadow_pages_live] as a
   gauge (+1 on page allocation, -1 on reclaim). *)

let create ?page_budget ?space () =
  let space =
    match space with Some sp -> sp | None -> Taint.Space.create ()
  in
  { space; cnt = Taint.Tagset.counts space;
    regs = Array.make Isa.Reg.count Taint.Tagset.empty;
    pages = Array.make n_slots no_page; n_live = 0;
    budget = (match page_budget with Some b -> max 0 b | None -> max_int);
    overflow = Taint.Tagset.empty; tagged = 0 }

let space s = s.space

let degraded s = not (Taint.Tagset.is_empty s.overflow)

let live_pages s = s.n_live

(* Refuse a store the shadow cannot hold: widen [overflow] instead, so
   subsequent reads still see the tag (and possibly more). *)
let refuse s tag =
  s.cnt.shadow_refused <- s.cnt.shadow_refused + 1;
  if not (degraded s) then s.cnt.shadow_degraded <- s.cnt.shadow_degraded + 1;
  s.overflow <- Taint.Tagset.union s.space s.overflow tag

let copy_page p =
  if p == no_page then p else { data = Array.copy p.data; live = p.live }

let clone s =
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live + s.n_live;
  { space = s.space; cnt = s.cnt; regs = Array.copy s.regs;
    pages = Array.map copy_page s.pages; n_live = s.n_live;
    budget = s.budget; overflow = s.overflow; tagged = s.tagged }

let regs s = s.regs

let[@inline] reg s r = s.regs.(Isa.Reg.index r)

let[@inline] set_reg s r tag = s.regs.(Isa.Reg.index r) <- tag

(* The page at slot [idx], which the caller has clamped to
   [0, n_slots). *)
let[@inline] page s idx = Array.unsafe_get s.pages idx

let[@inline] in_space addr = addr >= 0 && addr < mem_size

(* [clip_lo addr, clip_hi addr len) is the part of [addr, addr + len)
   inside the address space, empty ([hi <= lo]) when there is none, for
   [len > 0]; computed without forming [addr + len], which a guest
   length could overflow. *)
let[@inline] clip_lo addr = if addr < 0 then 0 else addr

let[@inline] clip_hi addr len =
  let lo = clip_lo addr in
  let n = if addr < 0 then len + addr else len in
  if n <= 0 then lo
  else if lo >= mem_size || n >= mem_size - lo then mem_size
  else lo + n

(* [beyond addr len]: some of [addr, addr + len) is outside the address
   space, for [len > 0]. *)
let[@inline] beyond addr len =
  addr < 0 || addr >= mem_size || len > mem_size - addr

let add_page s idx p =
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live + 1;
  s.n_live <- s.n_live + 1;
  Array.unsafe_set s.pages idx p

let remove_page s idx =
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live - 1;
  s.n_live <- s.n_live - 1;
  Array.unsafe_set s.pages idx no_page

(* The empty tag is a unique interned node, so emptiness in the hot
   loops below is a pointer comparison against this binding rather than
   a cross-module call. *)
let empty_tag = Taint.Tagset.empty

(* Widen a read by the overflow set when the shadow is degraded; free
   (one pointer compare) otherwise. *)
let[@inline] widen s t =
  if s.overflow == empty_tag then t
  else Taint.Tagset.union s.space t s.overflow

(* The tag of in-space byte [addr]. *)
let[@inline] tag_at s addr =
  let p = page s (addr lsr page_bits) in
  if p == no_page then empty_tag else p.data.(addr land page_mask)

let byte s addr =
  s.cnt.shadow_loads <- s.cnt.shadow_loads + 1;
  widen s (if in_space addr then tag_at s addr else empty_tag)

let fresh_page () = { data = Array.make page_size empty_tag; live = 0 }

(* Store [tag] over bytes [off, off+n) of the page at slot [idx],
   maintaining the live counters.  Idempotent stores — every byte
   already carries [tag], the common case when a loop re-copies the
   same buffer — are detected with pointer comparisons and write
   nothing. *)
let set_in_page s idx off n tag =
  let p = page s idx in
  if p == no_page then begin
    (* clearing an unmapped page is a no-op *)
    if tag != empty_tag then begin
      if s.n_live >= s.budget then refuse s tag
      else begin
        let p = fresh_page () in
        Array.fill p.data off n tag;
        p.live <- n;
        s.tagged <- s.tagged + n;
        add_page s idx p
      end
    end
  end
  else begin
    let data = p.data in
    let stop = off + n in
    let rec all_same i = i >= stop || (data.(i) == tag && all_same (i + 1)) in
    if not (all_same off) then begin
      let old_live =
        if n = page_size then p.live
        else begin
          let rec count i c =
            if i >= stop then c
            else count (i + 1) (if data.(i) != empty_tag then c + 1 else c)
          in
          count off 0
        end
      in
      Array.fill data off n tag;
      let new_live = if tag == empty_tag then 0 else n in
      p.live <- p.live + new_live - old_live;
      s.tagged <- s.tagged + new_live - old_live;
      if p.live = 0 then remove_page s idx
    end
  end

(* Store [tag] over the in-space bytes [lo, hi), page by page. *)
let rec set_pages s lo hi tag =
  if lo < hi then begin
    let off = lo land page_mask in
    let n = min (hi - lo) (page_size - off) in
    set_in_page s (lo lsr page_bits) off n tag;
    set_pages s (lo + n) hi tag
  end

(* A store reaching past the address space keeps its in-space part;
   the tag of the rest is refused like a store over the page budget,
   so no taint is lost.  The dataflow hook makes such a store just
   before the VM faults the same access (so the process dies), and a
   short-circuited routine's result pointer is whatever the guest
   returns.  A syscall's buffer cannot: the kernel writes guest bytes
   only after checking both ends of the buffer, so a read that
   returned [n > 0] bytes wrote them all inside the space. *)
let set_range s addr len tag =
  if len > 0 then begin
    s.cnt.shadow_stores <- s.cnt.shadow_stores + 1;
    if beyond addr len && tag != empty_tag then refuse s tag;
    if len = 1 then begin
      if in_space addr then begin
        (* idempotent store: skip the write (and its barrier) entirely *)
        if tag_at s addr != tag then
          set_in_page s (addr lsr page_bits) (addr land page_mask) 1 tag
      end
    end
    else set_pages s (clip_lo addr) (clip_hi addr len) tag
  end

let set_byte s addr tag = set_range s addr 1 tag

(* Union the bytes [off, off+n) of [p] into [acc]; runs of the tag
   already accumulated cost one pointer comparison per byte (interning),
   and [union] itself fast-paths the empty/equal cases.  Written as a
   tail loop so no [ref] cell is allocated per call. *)
let union_in_page sp p off n acc =
  let data = p.data in
  let stop = off + n in
  let rec go i acc =
    if i >= stop then acc
    else begin
      let t = data.(i) in
      go (i + 1)
        (if t != acc && t != empty_tag then Taint.Tagset.union sp acc t
         else acc)
    end
  in
  go off acc

(* Union the in-space bytes [lo, hi) into [acc], skipping unmapped
   pages. *)
let rec union_pages s lo hi acc =
  if lo >= hi then acc
  else begin
    let off = lo land page_mask in
    let n = min (hi - lo) (page_size - off) in
    let p = page s (lo lsr page_bits) in
    union_pages s (lo + n) hi
      (if p == no_page then acc else union_in_page s.space p off n acc)
  end

(* Bytes beyond the address space read as empty: no store keeps a
   tag there (see [set_range]). *)
let range s addr len =
  s.cnt.shadow_loads <- s.cnt.shadow_loads + 1;
  if len = 1 && in_space addr then
    (* single byte — every byte-sized mov lands here *)
    widen s (tag_at s addr)
  else if len <= 0 then empty_tag
  else widen s (union_pages s (clip_lo addr) (clip_hi addr len) empty_tag)

let tagged_bytes s = s.tagged
