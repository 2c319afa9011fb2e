type t = Tagset.space

let create () = Tagset.make_space ()
let interned = Tagset.interned_count
let reset = Tagset.reset_space

let c_intern_hits = Obs.Counter.make "taint.intern.hits"
let c_intern_misses = Obs.Counter.make "taint.intern.misses"
let c_memo_hits = Obs.Counter.make "taint.union_memo.hits"
let c_memo_misses = Obs.Counter.make "taint.union_memo.misses"
let c_loads = Obs.Counter.make "harrier.shadow.loads"
let c_stores = Obs.Counter.make "harrier.shadow.stores"
let c_refused = Obs.Counter.make "harrier.shadow.stores_refused"
let c_pages_live = Obs.Counter.make "harrier.shadow.pages_live"
let c_degraded = Obs.Counter.make "harrier.degraded"

let settle sp =
  let c = Tagset.counts sp in
  let flush h n = if n <> 0 then Obs.Counter.add h n in
  flush c_intern_hits c.intern_hits;
  flush c_intern_misses c.intern_misses;
  flush c_memo_hits c.memo_hits;
  flush c_memo_misses c.memo_misses;
  flush c_loads c.shadow_loads;
  flush c_stores c.shadow_stores;
  flush c_refused c.shadow_refused;
  flush c_pages_live c.shadow_pages_live;
  flush c_degraded c.shadow_degraded;
  c.intern_hits <- 0;
  c.intern_misses <- 0;
  c.memo_hits <- 0;
  c.memo_misses <- 0;
  c.shadow_loads <- 0;
  c.shadow_stores <- 0;
  c.shadow_refused <- 0;
  c.shadow_pages_live <- 0;
  c.shadow_degraded <- 0
