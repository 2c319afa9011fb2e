(* Paged shadow memory.

   Memory tags live in fixed-size pages of tag-set arrays, allocated on
   the first non-empty store into the page and reclaimed when their last
   tagged byte is cleared, so untainted regions cost nothing to read and
   [range]/[set_range] touch whole page runs instead of doing one hash
   lookup per byte.  A one-entry page cache short-circuits the table
   lookup for the consecutive accesses the data-flow hooks produce.
   Tag sets are hash-consed ([Taint.Tagset.equal] is pointer equality),
   which the range scan exploits: a run of bytes carrying the same tag —
   the common case after a [set_range] — costs one pointer comparison
   per byte and no unions. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type page = {
  data : Taint.Tagset.t array;
  mutable live : int;  (* number of non-empty slots; > 0 while mapped *)
}

(* Distinguished "unmapped" page so lookups stay option-free; also the
   cached result for a miss. *)
let no_page = { data = [||]; live = 0 }

type t = {
  space : Taint.Space.t;  (* hash-consing arena for every union below *)
  cnt : Taint.Tagset.counts;  (* the space's counts: accesses land here *)
  regs : Taint.Tagset.t array;
  pages : (int, page) Hashtbl.t;  (* page index -> page *)
  budget : int;  (* max live pages before saturation (max_int = none) *)
  mutable overflow : Taint.Tagset.t;
      (* union of every tag whose store was refused by the budget; once
         non-empty the shadow is degraded and every read is widened by
         this set — conservative over-tainting, taint is never lost *)
  mutable tagged : int;  (* total non-empty bytes across pages *)
  mutable last_idx : int;  (* one-entry lookup cache *)
  mutable last_page : page;
}

(* Counting goes to the space's count record, settled into Obs by the
   session engine ({!Taint.Space.settle}): [shadow_loads]/[stores] per
   access, [shadow_refused] per refused store, [shadow_degraded] once
   per shadow that crosses into saturation, and [shadow_pages_live] as
   a gauge (+1 on page allocation, -1 on reclaim). *)

let create ?page_budget ?space () =
  let space =
    match space with Some sp -> sp | None -> Taint.Space.create ()
  in
  { space; cnt = Taint.Tagset.counts space;
    regs = Array.make Isa.Reg.count Taint.Tagset.empty;
    pages = Hashtbl.create 64;
    budget = (match page_budget with Some b -> max 0 b | None -> max_int);
    overflow = Taint.Tagset.empty; tagged = 0; last_idx = min_int;
    last_page = no_page }

let space s = s.space

let degraded s = not (Taint.Tagset.is_empty s.overflow)

let live_pages s = Hashtbl.length s.pages

(* Refuse a store the page budget cannot accommodate: widen [overflow]
   instead, so subsequent reads still see the tag (and possibly more). *)
let refuse s tag =
  s.cnt.shadow_refused <- s.cnt.shadow_refused + 1;
  if not (degraded s) then s.cnt.shadow_degraded <- s.cnt.shadow_degraded + 1;
  s.overflow <- Taint.Tagset.union s.space s.overflow tag

let clone s =
  let pages = Hashtbl.create (Hashtbl.length s.pages) in
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live + Hashtbl.length s.pages;
  Hashtbl.iter
    (fun idx p ->
      Hashtbl.add pages idx { data = Array.copy p.data; live = p.live })
    s.pages;
  { space = s.space; cnt = s.cnt; regs = Array.copy s.regs; pages;
    budget = s.budget; overflow = s.overflow; tagged = s.tagged;
    last_idx = min_int; last_page = no_page }

let regs s = s.regs

let[@inline] reg s r = s.regs.(Isa.Reg.index r)

let[@inline] set_reg s r tag = s.regs.(Isa.Reg.index r) <- tag

(* [get_page] caches hits and misses: the hooks hammer the same page
   (stack or copy buffer) with consecutive accesses. *)
let get_page s idx =
  if idx = s.last_idx then s.last_page
  else begin
    let p =
      match Hashtbl.find_opt s.pages idx with
      | Some p -> p
      | None -> no_page
    in
    s.last_idx <- idx;
    s.last_page <- p;
    p
  end

let add_page s idx p =
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live + 1;
  Hashtbl.add s.pages idx p;
  s.last_idx <- idx;
  s.last_page <- p

let remove_page s idx =
  s.cnt.shadow_pages_live <- s.cnt.shadow_pages_live - 1;
  Hashtbl.remove s.pages idx;
  if s.last_idx = idx then s.last_page <- no_page

(* Widen a read by the overflow set when the shadow is degraded; free
   (one pointer compare) otherwise. *)
let[@inline] widen s t =
  if Taint.Tagset.is_empty s.overflow then t
  else Taint.Tagset.union s.space t s.overflow

let byte s addr =
  s.cnt.shadow_loads <- s.cnt.shadow_loads + 1;
  let p = get_page s (addr asr page_bits) in
  widen s
    (if p == no_page then Taint.Tagset.empty
     else p.data.(addr land page_mask))

let fresh_page () = { data = Array.make page_size Taint.Tagset.empty; live = 0 }

let set_byte s addr tag =
  s.cnt.shadow_stores <- s.cnt.shadow_stores + 1;
  let idx = addr asr page_bits in
  let p = get_page s idx in
  if p != no_page && p.data.(addr land page_mask) == tag then
    (* idempotent store: skip the write (and its barrier) entirely *)
    ()
  else if p == no_page then begin
    if not (Taint.Tagset.is_empty tag) then begin
      if Hashtbl.length s.pages >= s.budget then refuse s tag
      else begin
        let p = fresh_page () in
        p.data.(addr land page_mask) <- tag;
        p.live <- 1;
        s.tagged <- s.tagged + 1;
        add_page s idx p
      end
    end
  end
  else begin
    let off = addr land page_mask in
    let was_empty = Taint.Tagset.is_empty p.data.(off) in
    let tag_empty = Taint.Tagset.is_empty tag in
    p.data.(off) <- tag;
    match was_empty, tag_empty with
    | true, false ->
      p.live <- p.live + 1;
      s.tagged <- s.tagged + 1
    | false, true ->
      p.live <- p.live - 1;
      s.tagged <- s.tagged - 1;
      if p.live = 0 then remove_page s idx
    | _ -> ()
  end

(* The empty tag is a unique interned node, so emptiness in the hot
   loops below is a pointer comparison against this binding rather than
   a cross-module call. *)
let empty_tag = Taint.Tagset.empty

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

let range s addr len =
  s.cnt.shadow_loads <- s.cnt.shadow_loads + 1;
  let off = addr land page_mask in
  if len = 1 then begin
    (* single byte — every byte-sized mov lands here *)
    let p = get_page s (addr asr page_bits) in
    widen s (if p == no_page then empty_tag else p.data.(off))
  end
  else if len <= 0 then empty_tag
  else if off + len <= page_size then begin
    (* fast path: the whole range lives in one page *)
    let p = get_page s (addr asr page_bits) in
    widen s
      (if p == no_page then empty_tag
       else union_in_page s.space p off len empty_tag)
  end
  else begin
    let acc = ref empty_tag in
    let pos = ref addr and remaining = ref len in
    while !remaining > 0 do
      let off = !pos land page_mask in
      let n = min !remaining (page_size - off) in
      let p = get_page s (!pos asr page_bits) in
      if p != no_page then acc := union_in_page s.space p off n !acc;
      pos := !pos + n;
      remaining := !remaining - n
    done;
    widen s !acc
  end

(* Store [tag] over bytes [off, off+n) of the page at [idx],
   maintaining the live counters.  Idempotent stores — every byte
   already carries [tag], the common case when a loop re-copies the
   same buffer — are detected with pointer comparisons and write
   nothing. *)
let set_in_page s idx off n tag =
  let p = get_page s idx in
  if p == no_page then begin
    (* clearing an unmapped page is a no-op *)
    if tag != empty_tag then begin
      if Hashtbl.length s.pages >= s.budget then refuse s tag
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

let set_range s addr len tag =
  if len = 1 then set_byte s addr tag
  else if len > 0 then begin
    s.cnt.shadow_stores <- s.cnt.shadow_stores + 1;
    let off = addr land page_mask in
    if off + len <= page_size then
      set_in_page s (addr asr page_bits) off len tag
    else begin
      let pos = ref addr and remaining = ref len in
      while !remaining > 0 do
        let off = !pos land page_mask in
        let n = min !remaining (page_size - off) in
        set_in_page s (!pos asr page_bits) off n tag;
        pos := !pos + n;
        remaining := !remaining - n
      done
    end
  end

let tagged_bytes s = s.tagged
