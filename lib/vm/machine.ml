type fault =
  | Bad_fetch of int
  | Bad_access of int
  | Div_by_zero

type status = Running | Halted | Faulted of fault

type t = {
  regs : int array;
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable lt : bool;
  mem : Bytes.t;
  mutable segs : segment list;
  mutable cur_seg : segment;
      (* one-entry fetch cache: consecutive instructions execute from the
         same segment, so [step] skips the segment-list scan *)
  mutable status : status;
  mutable at_bb_start : bool;
  h : hooks;
  mutable retired : int;  (* instructions retired by the last step *)
  (* Owner-local counts, added to Obs by [settle]: a plain field
     increment here replaces a domain-local lookup per instruction. *)
  mutable n_insns : int;
  mutable n_blocks : int;
  mutable n_fetch_hits : int;
  mutable n_fetch_misses : int;
  mutable n_decoded : int;
}

and segment = {
  seg_base : int;
  seg_insns : Isa.Insn.t array;
  seg_image : string;
  seg_kind : Binary.Image.kind;
  seg_lens : int array;
  seg_ops : (t -> unit) option array;
      (* compiled-insn slots, lazily filled by [step_block]; shared with
         every machine mapping the same image (see [ops_for]), so fleet
         workers decode each block once *)
}

and hooks = {
  mutable pre_insn : t -> int -> Isa.Insn.t -> unit;
  mutable on_bb : t -> int -> unit;
  mutable on_block : t -> segment -> int -> int -> bool;
}

(* Sentinel "no segment": an empty interval, so the fetch fast path
   below never matches it. *)
let no_seg =
  { seg_base = 0; seg_insns = [||]; seg_image = "";
    seg_kind = Binary.Image.Executable; seg_lens = [||]; seg_ops = [||] }

let no_hooks () =
  { pre_insn = (fun _ _ _ -> ());
    on_bb = (fun _ _ -> ());
    on_block = (fun _ _ _ _ -> false) }

let mem_size = 0x100000

exception Fault_exn of fault

(* Recycling pool for the 1 MiB address-space buffers.  Allocating (and
   faulting in) a megabyte per spawn dominates small-session setup, so
   a caller that runs many sequential worlds hands the same pool to
   every kernel and returns the buffers when a world is torn down.  A
   pooled buffer is zeroed (create) or fully overwritten (clone) before
   reuse, so guest-visible behaviour is identical to fresh allocation. *)
type mem_pool = { mutable mp_free : Bytes.t list; mp_cap : int }

let mem_pool ?(cap = 16) () = { mp_free = []; mp_cap = cap }

let pool_take p =
  match p.mp_free with
  | b :: rest ->
    p.mp_free <- rest;
    Some b
  | [] -> None

let fresh_mem = function
  | None -> Bytes.make mem_size '\000'
  | Some p ->
    (match pool_take p with
     | Some b ->
       Bytes.fill b 0 mem_size '\000';
       b
     | None -> Bytes.make mem_size '\000')

let copied_mem pool src =
  match pool with
  | None -> Bytes.copy src
  | Some p ->
    (match pool_take p with
     | Some b ->
       Bytes.blit src 0 b 0 mem_size;
       b
     | None -> Bytes.copy src)

let recycle_mem p m =
  (* membership check defends against double-recycling a machine, which
     would hand one buffer to two future machines *)
  if List.length p.mp_free < p.mp_cap && not (List.memq m.mem p.mp_free) then
    p.mp_free <- m.mem :: p.mp_free

let create ?hooks ?pool () =
  let h = match hooks with Some h -> h | None -> no_hooks () in
  { regs = Array.make Isa.Reg.count 0; eip = 0; zf = false; sf = false;
    lt = false; mem = fresh_mem pool; segs = []; cur_seg = no_seg;
    status = Running; at_bb_start = true; h; retired = 0; n_insns = 0;
    n_blocks = 0; n_fetch_hits = 0; n_fetch_misses = 0; n_decoded = 0 }

let hooks m = m.h

(* The clone starts with no unsettled counts: those stay with [m]. *)
let clone ?pool m =
  { regs = Array.copy m.regs; eip = m.eip; zf = m.zf; sf = m.sf; lt = m.lt;
    mem = copied_mem pool m.mem; segs = m.segs; cur_seg = m.cur_seg;
    status = m.status; at_bb_start = m.at_bb_start; h = m.h; retired = 0;
    n_insns = 0; n_blocks = 0; n_fetch_hits = 0; n_fetch_misses = 0;
    n_decoded = 0 }

let status m = m.status
let set_status m s = m.status <- s
let eip m = m.eip

let set_eip m a =
  m.eip <- a;
  m.at_bb_start <- true

let regs m = m.regs
let get_reg m r = m.regs.(Isa.Reg.index r)
let set_reg m r v = m.regs.(Isa.Reg.index r) <- v land 0xFFFFFFFF

let check_addr addr =
  if addr < 0 || addr >= mem_size then raise (Fault_exn (Bad_access addr))

let read_byte m addr =
  check_addr addr;
  Char.code (Bytes.get m.mem addr)

let write_byte m addr v =
  check_addr addr;
  Bytes.set m.mem addr (Char.chr (v land 0xFF))

let read_word m addr =
  check_addr addr;
  check_addr (addr + 3);
  Int32.to_int (Bytes.get_int32_le m.mem addr) land 0xFFFFFFFF

let write_word m addr v =
  check_addr addr;
  check_addr (addr + 3);
  Bytes.set_int32_le m.mem addr (Int32.of_int (v land 0xFFFFFFFF))

let read_bytes m addr len =
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  Bytes.sub_string m.mem addr len

let write_string m addr s =
  check_addr addr;
  if String.length s > 0 then check_addr (addr + String.length s - 1);
  Bytes.blit_string s 0 m.mem addr (String.length s)

let read_cstring m addr =
  check_addr addr;
  let rec find i =
    if i >= mem_size then i
    else if Bytes.get m.mem i = '\000' then i
    else find (i + 1)
  in
  let stop = find addr in
  Bytes.sub_string m.mem addr (stop - addr)

(* Per-image compiled-op tables, keyed by physical equality on the text
   array.  Linked images are interned per engine and shared by every
   forked fleet worker, so all machines mapping one image write into
   (and benefit from) the same slot array.  Slot stores race benignly
   across domains: a stale [None] read just recompiles the identical
   closure.  The registry is bounded; evicting an entry only forfeits
   sharing for images still mapped somewhere. *)
let ops_registry : (Isa.Insn.t array * (t -> unit) option array) list ref =
  ref []

let ops_mu = Mutex.create ()
let ops_registry_cap = 512

let ops_for text =
  Mutex.lock ops_mu;
  let ops =
    match List.find_opt (fun (t', _) -> t' == text) !ops_registry with
    | Some (_, ops) -> ops
    | None ->
      let ops = Array.make (Array.length text) None in
      let reg = (text, ops) :: !ops_registry in
      ops_registry :=
        (if List.length reg > ops_registry_cap then
           List.filteri (fun i _ -> i < ops_registry_cap / 2) reg
         else reg);
      ops
  in
  Mutex.unlock ops_mu;
  ops

let map_image m (img : Binary.Image.t) =
  m.segs <-
    { seg_base = img.base; seg_insns = img.text; seg_image = img.path;
      seg_kind = img.kind; seg_lens = img.blocks; seg_ops = ops_for img.text }
    :: m.segs;
  (* the new segment may shadow the cached one *)
  m.cur_seg <- no_seg;
  List.iter
    (fun (s : Binary.Section.t) ->
      write_string m s.addr (Bytes.to_string s.bytes))
    img.sections

let segments m = m.segs

let segment_at m addr =
  List.find_opt
    (fun s -> addr >= s.seg_base && addr < s.seg_base + Array.length s.seg_insns)
    m.segs

(* Observability.  The step loop counts into the machine's own fields;
   [settle] adds them to these counters at a quantum boundary.
   [decoded] counts compiled-insn slots filled by [step_block];
   [vm.blocks.promoted]/[deopt] belong to the tier policy in the
   monitor. *)
let c_instructions = Obs.Counter.make "vm.instructions"
let c_blocks = Obs.Counter.make "vm.blocks"
let c_fetch_hits = Obs.Counter.make "vm.fetch_cache.hits"
let c_fetch_misses = Obs.Counter.make "vm.fetch_cache.misses"
let c_decoded = Obs.Counter.make "vm.blocks.decoded"

let settle m =
  let flush c n = if n <> 0 then Obs.Counter.add c n in
  flush c_instructions m.n_insns;
  flush c_blocks m.n_blocks;
  flush c_fetch_hits m.n_fetch_hits;
  flush c_fetch_misses m.n_fetch_misses;
  flush c_decoded m.n_decoded;
  m.n_insns <- 0;
  m.n_blocks <- 0;
  m.n_fetch_hits <- 0;
  m.n_fetch_misses <- 0;
  m.n_decoded <- 0

(* Allocation-free fetch: hit the cached segment or rescan; [no_seg]
   means no segment maps [addr]. *)
let seg_for m addr =
  let s = m.cur_seg in
  if addr - s.seg_base >= 0 && addr - s.seg_base < Array.length s.seg_insns
  then begin
    m.n_fetch_hits <- m.n_fetch_hits + 1;
    s
  end
  else begin
    m.n_fetch_misses <- m.n_fetch_misses + 1;
    match segment_at m addr with
    | Some s ->
      m.cur_seg <- s;
      s
    | None -> no_seg
  end

let fetch m addr =
  let s = seg_for m addr in
  if s == no_seg then None else Some s.seg_insns.(addr - s.seg_base)

(* The operand helpers are top-level and called saturated, so the
   per-instruction path builds no closures. *)
let reg_or_zero m = function None -> 0 | Some reg -> get_reg m reg

let eff_addr m (r : Isa.Operand.mem_ref) =
  (r.disp + reg_or_zero m r.base + (reg_or_zero m r.index * r.scale))
  land 0xFFFFFFFF

let mask size v =
  match size with
  | Isa.Insn.B -> v land 0xFF
  | Isa.Insn.W -> v land 0xFFFFFFFF

let read_operand m size op =
  match op with
  | Isa.Operand.Imm n -> mask size n
  | Isa.Operand.Reg r -> mask size (get_reg m r)
  | Isa.Operand.Mem ref ->
    let addr = eff_addr m ref in
    (match size with
     | Isa.Insn.B -> read_byte m addr
     | Isa.Insn.W -> read_word m addr)

let write_operand m size op v =
  match op with
  | Isa.Operand.Imm _ -> failwith "Machine: immediate destination"
  | Isa.Operand.Reg r ->
    (match size with
     | Isa.Insn.B -> set_reg m r (v land 0xFF)
     | Isa.Insn.W -> set_reg m r v)
  | Isa.Operand.Mem ref ->
    let addr = eff_addr m ref in
    (match size with
     | Isa.Insn.B -> write_byte m addr v
     | Isa.Insn.W -> write_word m addr v)

let sign32 v = if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let set_flags m r =
  let r = r land 0xFFFFFFFF in
  m.zf <- r = 0;
  m.sf <- r land 0x80000000 <> 0;
  m.lt <- m.sf

let cond_holds m = function
  | Isa.Insn.Z -> m.zf
  | Isa.Insn.NZ -> not m.zf
  | Isa.Insn.L -> m.lt
  | Isa.Insn.GE -> not m.lt
  | Isa.Insn.LE -> m.lt || m.zf
  | Isa.Insn.G -> not (m.lt || m.zf)
  | Isa.Insn.S -> m.sf
  | Isa.Insn.NS -> not m.sf

type outcome =
  | Continue
  | Syscall of int
  | Stopped of status

let target_value m op = read_operand m Isa.Insn.W op

let push m v =
  let sp = get_reg m ESP - 4 in
  set_reg m ESP sp;
  write_word m sp v

let pop m =
  let sp = get_reg m ESP in
  let v = read_word m sp in
  set_reg m ESP (sp + 4);
  v

(* cpuid writes a fixed processor identity; the interesting part is that
   the monitor tags the destination registers HARDWARE. *)
let cpuid_values = (0x756E_6547, 0x4963_6E74, 0x6C65_746E, 0x0000_0F4A)

(* Saturated top-level helpers, so [exec] allocates no closures on the
   per-instruction path; the operator arguments below are static
   constant closures. *)
let[@inline] next m = m.eip <- m.eip + 1

let alu m f dst src =
  let a = read_operand m Isa.Insn.W dst and b = read_operand m Isa.Insn.W src in
  let r = f a b land 0xFFFFFFFF in
  set_flags m r;
  write_operand m Isa.Insn.W dst r;
  next m

let sdiv a b = sign32 a / sign32 b
let shl a b = a lsl (b land 31)
let shr a b = a lsr (b land 31)
let incr1 a _ = a + 1
let decr1 a _ = a - 1

let signed (sz : Isa.Insn.size) v = match sz with B -> v | W -> sign32 v

let compare_ops m sz a b =
  let x = signed sz (read_operand m sz a)
  and y = signed sz (read_operand m sz b) in
  m.zf <- x = y;
  m.lt <- x < y;
  m.sf <- m.lt;
  next m

let test_ops m a b =
  set_flags m (read_operand m W a land read_operand m W b);
  next m

let push_op m a =
  push m (read_operand m W a);
  next m

let pop_op m dst =
  let v = pop m in
  write_operand m W dst v;
  next m

let cpuid m =
  let a, b, c, d = cpuid_values in
  set_reg m EAX a;
  set_reg m EBX b;
  set_reg m ECX c;
  set_reg m EDX d;
  next m

let exec m insn =
  let open Isa.Insn in
  match insn with
  | Mov (sz, dst, src) ->
    write_operand m sz dst (read_operand m sz src);
    next m;
    Continue
  | Lea (r, ref) ->
    set_reg m r (eff_addr m ref);
    next m;
    Continue
  | Add (d, s) -> alu m ( + ) d s; Continue
  | Sub (d, s) -> alu m ( - ) d s; Continue
  | And (d, s) -> alu m ( land ) d s; Continue
  | Or (d, s) -> alu m ( lor ) d s; Continue
  | Xor (d, s) -> alu m ( lxor ) d s; Continue
  | Mul (d, s) -> alu m ( * ) d s; Continue
  | Div (d, s) ->
    let b = read_operand m W s in
    if b = 0 then raise (Fault_exn Div_by_zero);
    alu m sdiv d s;
    Continue
  | Shl (d, s) -> alu m shl d s; Continue
  | Shr (d, s) -> alu m shr d s; Continue
  | Inc d -> alu m incr1 d (Imm 0); Continue
  | Dec d -> alu m decr1 d (Imm 0); Continue
  | Cmp (sz, a, b) -> compare_ops m sz a b; Continue
  | Test (a, b) -> test_ops m a b; Continue
  | Push a -> push_op m a; Continue
  | Pop dst -> pop_op m dst; Continue
  | Jmp t ->
    m.eip <- target_value m t;
    Continue
  | Jcc (c, t) ->
    if cond_holds m c then m.eip <- target_value m t else next m;
    Continue
  | Call t ->
    let dest = target_value m t in
    push m (m.eip + 1);
    m.eip <- dest;
    Continue
  | Ret ->
    m.eip <- pop m;
    Continue
  | Int n ->
    next m;
    Syscall n
  | Cpuid -> cpuid m; Continue
  | Nop -> next m; Continue
  | Hlt ->
    m.status <- Halted;
    Stopped Halted

(* One interpreted instruction from an already-resolved segment; the
   single [seg_for] call stays with the caller so the fetch-cache
   counters count each fetch exactly once on every path. *)
let step_in m seg =
  m.retired <- 1;
  if seg == no_seg then begin
    m.status <- Faulted (Bad_fetch m.eip);
    Stopped m.status
  end
  else begin
    let insn = seg.seg_insns.(m.eip - seg.seg_base) in
    try
      m.n_insns <- m.n_insns + 1;
      if m.at_bb_start then begin
        m.n_blocks <- m.n_blocks + 1;
        m.h.on_bb m m.eip
      end;
      m.h.pre_insn m m.eip insn;
      m.at_bb_start <- Isa.Insn.writes_control_flow insn;
      exec m insn
    with Fault_exn f ->
      m.status <- Faulted f;
      Stopped m.status
  end

let stopped m s =
  m.retired <- 0;
  Stopped s

let step m =
  match m.status with
  | (Halted | Faulted _) as s -> stopped m s
  | Running -> step_in m (seg_for m m.eip)

(* Compile one body-safe instruction to a closure replicating [exec]'s
   semantics exactly (flags, masking, faults, eip advance).  Only
   called from [step_block] on instructions [Isa.Block.body_safe]
   admits; terminators and [Div] always stay with the interpreter. *)
let compile_insn insn =
  let open Isa.Insn in
  match insn with
  | Mov (sz, dst, src) ->
    fun m ->
      write_operand m sz dst (read_operand m sz src);
      next m
  | Lea (r, ref) ->
    fun m ->
      set_reg m r (eff_addr m ref);
      next m
  | Add (d, s) -> fun m -> alu m ( + ) d s
  | Sub (d, s) -> fun m -> alu m ( - ) d s
  | And (d, s) -> fun m -> alu m ( land ) d s
  | Or (d, s) -> fun m -> alu m ( lor ) d s
  | Xor (d, s) -> fun m -> alu m ( lxor ) d s
  | Mul (d, s) -> fun m -> alu m ( * ) d s
  | Shl (d, s) -> fun m -> alu m shl d s
  | Shr (d, s) -> fun m -> alu m shr d s
  | Inc d -> fun m -> alu m incr1 d (Imm 0)
  | Dec d -> fun m -> alu m decr1 d (Imm 0)
  | Cmp (sz, a, b) -> fun m -> compare_ops m sz a b
  | Test (a, b) -> fun m -> test_ops m a b
  | Push a -> fun m -> push_op m a
  | Pop dst -> fun m -> pop_op m dst
  | Cpuid -> cpuid
  | Nop -> next
  | Div _ | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt ->
    invalid_arg "Machine.compile_insn: not body-safe"

(* Run instructions [i, len) of the compiled body at [off] in [seg],
   filling empty op slots on first use.  A mid-block fault rolls the
   hoisted instruction and fetch counts back so they match
   interpretation exactly. *)
let rec run_body m seg off len i =
  if i >= len then Continue
  else begin
    let op =
      match Array.unsafe_get seg.seg_ops (off + i) with
      | Some f -> f
      | None ->
        m.n_decoded <- m.n_decoded + 1;
        let f = compile_insn seg.seg_insns.(off + i) in
        seg.seg_ops.(off + i) <- Some f;
        f
    in
    match op m with
    | () -> run_body m seg off len (i + 1)
    | exception Fault_exn f ->
      m.status <- Faulted f;
      m.retired <- i + 1;
      m.n_insns <- m.n_insns + (i + 1 - len);
      m.n_fetch_hits <- m.n_fetch_hits + (i - (len - 1));
      Stopped m.status
  end

(* Tiered dispatch: at a basic-block start whose straight-line body fits
   the remaining [fuel], offer the block to the [on_block] hook.  If it
   accepts (the tier policy has promoted the block and applied — or
   deliberately skipped — its taint summary), the body runs as compiled
   closures with no per-instruction hook calls; the terminator and every
   other case take the interpreted [step] path unchanged.  The number of
   instructions retired (for quantum accounting) is left in
   [m.retired]. *)
let step_block m ~fuel =
  match m.status with
  | (Halted | Faulted _) as s -> stopped m s
  | Running ->
    let seg = seg_for m m.eip in
    if not m.at_bb_start || seg == no_seg then step_in m seg
    else begin
      let off = m.eip - seg.seg_base in
      let len = seg.seg_lens.(off) in
      if len = 0 || len > fuel || not (m.h.on_block m seg m.eip len) then
        step_in m seg
      else begin
        m.n_blocks <- m.n_blocks + 1;
        m.h.on_bb m m.eip;
        m.at_bb_start <- false;
        (* per-insn accounting is hoisted to one add per kind (the
           first fetch was counted by [seg_for]; the rest of the body
           would all hit the one-entry cache) *)
        m.retired <- len;
        m.n_insns <- m.n_insns + len;
        m.n_fetch_hits <- m.n_fetch_hits + (len - 1);
        run_body m seg off len 0
      end
    end

let retired m = m.retired

let pp_fault ppf = function
  | Bad_fetch a -> Fmt.pf ppf "bad fetch at 0x%x" a
  | Bad_access a -> Fmt.pf ppf "bad memory access at 0x%x" a
  | Div_by_zero -> Fmt.string ppf "division by zero"

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Halted -> Fmt.string ppf "halted"
  | Faulted f -> Fmt.pf ppf "faulted: %a" pp_fault f
