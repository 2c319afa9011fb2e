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
  pages : Bytes.t array;  (* [n_pages] pages; see [zero_page] *)
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
      (* compiled-insn slots, filled when a chain first needs them *)
  seg_chains : chain option array;
      (* per block leader: the body's slots chained into one closure,
         built by [step_block] on the body's first compiled run.  Both
         arrays are shared with every machine mapping the same image
         (see [ops_for]), so fleet workers compile each block once *)
}

and chain = {
  ch_body : t -> unit;  (* the body alone *)
  ch_fused : t -> unit;
      (* the body and then its branch terminator, when that is a [Jcc]
         to an immediate target; [ch_body] otherwise *)
  ch_len : int;  (* instructions [ch_fused] retires *)
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
    seg_kind = Binary.Image.Executable; seg_lens = [||]; seg_ops = [||];
    seg_chains = [||] }

let no_hooks () =
  { pre_insn = (fun _ _ _ -> ());
    on_bb = (fun _ _ -> ());
    on_block = (fun _ _ _ _ -> false) }

let mem_size = 0x100000

exception Fault_exn of fault

(* Paged address space.  The 1 MiB space is 256 pages of 4 KiB (the
   page size of [Harrier.Shadow]).  Every page starts as [zero_page], one
   shared buffer that is never written, and is materialised on its first
   write; reads index the page array with no check for the zero page.
   So a process pays only for the pages it writes, and [clone] (fork)
   copies only those. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let n_pages = mem_size lsr page_bits

let zero_page = Bytes.make page_size '\000'

let create ?hooks () =
  let h = match hooks with Some h -> h | None -> no_hooks () in
  { regs = Array.make Isa.Reg.count 0; eip = 0; zf = false; sf = false;
    lt = false; pages = Array.make n_pages zero_page; segs = [];
    cur_seg = no_seg; status = Running; at_bb_start = true; h; retired = 0;
    n_insns = 0; n_blocks = 0; n_fetch_hits = 0; n_fetch_misses = 0;
    n_decoded = 0 }

let hooks m = m.h

(* The clone starts with no unsettled counts: those stay with [m]. *)
let clone m =
  { regs = Array.copy m.regs; eip = m.eip; zf = m.zf; sf = m.sf; lt = m.lt;
    pages = Array.map (fun p -> if p == zero_page then p else Bytes.copy p)
        m.pages;
    segs = m.segs; cur_seg = m.cur_seg; status = m.status;
    at_bb_start = m.at_bb_start; h = m.h; retired = 0; n_insns = 0;
    n_blocks = 0; n_fetch_hits = 0; n_fetch_misses = 0; n_decoded = 0 }

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

(* The page holding checked address [addr]. *)
let[@inline] page m addr = Array.unsafe_get m.pages (addr lsr page_bits)

(* The page holding checked address [addr], materialised for writing. *)
let page_w m addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get m.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set m.pages i p;
    p
  end

let read_byte m addr =
  check_addr addr;
  Char.code (Bytes.unsafe_get (page m addr) (addr land page_mask))

let write_byte m addr v =
  check_addr addr;
  Bytes.unsafe_set (page_w m addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* A word whose page offset is past [page_size - 4] straddles two pages
   and is moved a byte at a time, after both ends are checked. *)
let straddles addr = addr land page_mask > page_size - 4

let read_word m addr =
  check_addr addr;
  check_addr (addr + 3);
  if straddles addr then
    read_byte m addr
    lor (read_byte m (addr + 1) lsl 8)
    lor (read_byte m (addr + 2) lsl 16)
    lor (read_byte m (addr + 3) lsl 24)
  else
    Int32.to_int (Bytes.get_int32_le (page m addr) (addr land page_mask))
    land 0xFFFFFFFF

let write_word m addr v =
  check_addr addr;
  check_addr (addr + 3);
  if straddles addr then begin
    write_byte m addr v;
    write_byte m (addr + 1) (v lsr 8);
    write_byte m (addr + 2) (v lsr 16);
    write_byte m (addr + 3) (v lsr 24)
  end
  else
    Bytes.set_int32_le (page_w m addr) (addr land page_mask)
      (Int32.of_int (v land 0xFFFFFFFF))

(* [spans addr len f] calls [f page_index page_offset done span] for
   each page-bounded piece of [addr, addr + len), in address order. *)
let spans addr len f =
  let rec go a d =
    if d < len then begin
      let off = a land page_mask in
      let n = min (len - d) (page_size - off) in
      f (a lsr page_bits) off d n;
      go (a + n) (d + n)
    end
  in
  go addr 0

let read_bytes m addr len =
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  let b = Bytes.create len in
  spans addr len (fun i off d n -> Bytes.blit m.pages.(i) off b d n);
  Bytes.unsafe_to_string b

let write_string m addr s =
  let len = String.length s in
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  spans addr len (fun i off d n ->
      Bytes.blit_string s d (page_w m (i lsl page_bits)) off n)

let read_cstring m addr =
  check_addr addr;
  (* first NUL at or after [a], or [mem_size] *)
  let rec find a =
    if a >= mem_size then a
    else begin
      let p = page m a in
      let stop = (a lor page_mask) + 1 in
      let rec scan a =
        if a = stop then find a
        else if Bytes.unsafe_get p (a land page_mask) = '\000' then a
        else scan (a + 1)
      in
      scan a
    end
  in
  read_bytes m addr (find addr - addr)

(* Per-image compiled-op tables (instruction slots and block chains),
   keyed by physical equality on the text array.  Linked images are
   interned per engine and shared by every forked fleet worker, so all
   machines mapping one image write into (and benefit from) the same
   arrays.  Stores race benignly across domains: a stale [None] read
   just recompiles an identical closure.  The registry is bounded;
   evicting an entry only forfeits sharing for images still mapped
   somewhere. *)
type compiled = {
  c_ops : (t -> unit) option array;
  c_chains : chain option array;
}

let ops_registry : (Isa.Insn.t array * compiled) list ref = ref []

let ops_mu = Mutex.create ()
let ops_registry_cap = 512

let ops_for text =
  Mutex.lock ops_mu;
  let c =
    match List.find_opt (fun (t', _) -> t' == text) !ops_registry with
    | Some (_, c) -> c
    | None ->
      let n = Array.length text in
      let c = { c_ops = Array.make n None; c_chains = Array.make n None } in
      let reg = (text, c) :: !ops_registry in
      ops_registry :=
        (if List.length reg > ops_registry_cap then
           List.filteri (fun i _ -> i < ops_registry_cap / 2) reg
         else reg);
      c
  in
  Mutex.unlock ops_mu;
  c

let map_image m (img : Binary.Image.t) =
  let c = ops_for img.text in
  m.segs <-
    { seg_base = img.base; seg_insns = img.text; seg_image = img.path;
      seg_kind = img.kind; seg_lens = img.blocks; seg_ops = c.c_ops;
      seg_chains = c.c_chains }
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

(* ------------------------------------------------------------------ *)
(* The compiled tier                                                   *)

(* [compile_insn] specialises one body-safe instruction on its operand
   shape when it builds the closure: register indices, masked
   immediates and the effective-address form are resolved here, so the
   closure matches no operand constructor at run time.  Each closure
   replicates [exec] exactly — flags, masking, the order of memory
   accesses (so the same address faults first) and the [eip] advance —
   and relies on the register file holding 32-bit values, which
   [set_reg] guarantees.  Terminators and [Div] always stay with the
   interpreter. *)

let m32 = 0xFFFFFFFF
let esp = Isa.Reg.index ESP

let[@inline] rg m i = Array.unsafe_get m.regs i

(* The effective address of [r], as [eff_addr], specialised on its
   form: displacement, base + displacement, or a scaled index. *)
let ea_fn (r : Isa.Operand.mem_ref) : t -> int =
  let d = r.disp and s = r.scale in
  match r.base, r.index with
  | None, None ->
    let a = d land m32 in
    fun _ -> a
  | Some b, None ->
    let b = Isa.Reg.index b in
    fun m -> (d + rg m b) land m32
  | None, Some i ->
    let i = Isa.Reg.index i in
    fun m -> (d + (rg m i * s)) land m32
  | Some b, Some i ->
    let b = Isa.Reg.index b and i = Isa.Reg.index i in
    fun m -> (d + rg m b + (rg m i * s)) land m32

(* [reader sz op] evaluates [op] as [read_operand m sz op]. *)
let reader (sz : Isa.Insn.size) (op : Isa.Operand.t) : t -> int =
  match op, sz with
  | Imm n, _ ->
    let v = mask sz n in
    fun _ -> v
  | Reg r, W ->
    let i = Isa.Reg.index r in
    fun m -> rg m i
  | Reg r, B ->
    let i = Isa.Reg.index r in
    fun m -> rg m i land 0xFF
  | Mem r, W ->
    let ea = ea_fn r in
    fun m -> read_word m (ea m)
  | Mem r, B ->
    let ea = ea_fn r in
    fun m -> read_byte m (ea m)

let not_body_safe () = invalid_arg "Machine.compile_insn: not body-safe"

let[@inline] set_r m d v =
  Array.unsafe_set m.regs d v;
  next m

let compile_mov (sz : Isa.Insn.size) (dst : Isa.Operand.t)
    (src : Isa.Operand.t) : t -> unit =
  match dst, src, sz with
  | Reg d, Reg s, W ->
    let d = Isa.Reg.index d and s = Isa.Reg.index s in
    fun m -> set_r m d (rg m s)
  | Reg d, Reg s, B ->
    let d = Isa.Reg.index d and s = Isa.Reg.index s in
    fun m -> set_r m d (rg m s land 0xFF)
  | Reg d, Imm n, _ ->
    let d = Isa.Reg.index d and v = mask sz n in
    fun m -> set_r m d v
  | Reg d, Mem r, W ->
    let d = Isa.Reg.index d and ea = ea_fn r in
    fun m -> set_r m d (read_word m (ea m))
  | Reg d, Mem r, B ->
    let d = Isa.Reg.index d and ea = ea_fn r in
    fun m -> set_r m d (read_byte m (ea m))
  | Mem r, Reg s, W ->
    let ea = ea_fn r and s = Isa.Reg.index s in
    fun m ->
      write_word m (ea m) (rg m s);
      next m
  | Mem r, Reg s, B ->
    let ea = ea_fn r and s = Isa.Reg.index s in
    fun m ->
      write_byte m (ea m) (rg m s);
      next m
  | Mem r, Imm n, W ->
    let ea = ea_fn r and v = mask W n in
    fun m ->
      write_word m (ea m) v;
      next m
  | Mem r, Imm n, B ->
    let ea = ea_fn r and v = mask B n in
    fun m ->
      write_byte m (ea m) v;
      next m
  | Mem r, Mem s, W ->
    let ea = ea_fn r and src = ea_fn s in
    fun m ->
      let v = read_word m (src m) in
      write_word m (ea m) v;
      next m
  | Mem r, Mem s, B ->
    let ea = ea_fn r and src = ea_fn s in
    fun m ->
      let v = read_byte m (src m) in
      write_byte m (ea m) v;
      next m
  | Imm _, _, _ -> not_body_safe ()

type alu_op = A_add | A_sub | A_and | A_or | A_xor | A_mul | A_shl | A_shr

let[@inline] binop op a b =
  match op with
  | A_add -> a + b
  | A_sub -> a - b
  | A_and -> a land b
  | A_or -> a lor b
  | A_xor -> a lxor b
  | A_mul -> a * b
  | A_shl -> shl a b
  | A_shr -> shr a b

(* Flags, destination register and [eip] for an ALU result. *)
let[@inline] alu_reg m d r =
  let r = r land m32 in
  m.zf <- r = 0;
  m.sf <- r land 0x80000000 <> 0;
  m.lt <- m.sf;
  set_r m d r

(* The two register-destination shapes hot loops are made of, with the
   operator fixed in the closure body. *)
let alu_rr op d s : t -> unit =
  match op with
  | A_add -> fun m -> alu_reg m d (rg m d + rg m s)
  | A_sub -> fun m -> alu_reg m d (rg m d - rg m s)
  | A_and -> fun m -> alu_reg m d (rg m d land rg m s)
  | A_or -> fun m -> alu_reg m d (rg m d lor rg m s)
  | A_xor -> fun m -> alu_reg m d (rg m d lxor rg m s)
  | A_mul -> fun m -> alu_reg m d (rg m d * rg m s)
  | A_shl -> fun m -> alu_reg m d (rg m d lsl (rg m s land 31))
  | A_shr -> fun m -> alu_reg m d (rg m d lsr (rg m s land 31))

let alu_ri op d k : t -> unit =
  match op with
  | A_add -> fun m -> alu_reg m d (rg m d + k)
  | A_sub -> fun m -> alu_reg m d (rg m d - k)
  | A_and -> fun m -> alu_reg m d (rg m d land k)
  | A_or -> fun m -> alu_reg m d (rg m d lor k)
  | A_xor -> fun m -> alu_reg m d (rg m d lxor k)
  | A_mul -> fun m -> alu_reg m d (rg m d * k)
  | A_shl ->
    let k = k land 31 in
    fun m -> alu_reg m d (rg m d lsl k)
  | A_shr ->
    let k = k land 31 in
    fun m -> alu_reg m d (rg m d lsr k)

(* As [alu]: the destination is read before the source, and a memory
   destination is written at the address it was read from. *)
let compile_alu op (dst : Isa.Operand.t) (src : Isa.Operand.t) : t -> unit =
  match dst, src with
  | Reg d, Reg s -> alu_rr op (Isa.Reg.index d) (Isa.Reg.index s)
  | Reg d, Imm n -> alu_ri op (Isa.Reg.index d) (mask W n)
  | Reg d, Mem _ ->
    let d = Isa.Reg.index d and src = reader W src in
    fun m -> alu_reg m d (binop op (rg m d) (src m))
  | Mem r, _ ->
    let ea = ea_fn r and src = reader W src in
    fun m ->
      let a = ea m in
      let x = read_word m a in
      let r = binop op x (src m) land m32 in
      set_flags m r;
      write_word m a r;
      next m
  | Imm _, _ -> not_body_safe ()

let[@inline] cmp_set m x y =
  m.zf <- x = y;
  m.lt <- x < y;
  m.sf <- m.lt;
  next m

(* As [compare_ops]: [a] is read before [b]; byte operands compare
   unsigned. *)
let compile_cmp (sz : Isa.Insn.size) (a : Isa.Operand.t) (b : Isa.Operand.t)
    : t -> unit =
  match sz, a, b with
  | W, Reg a, Imm n ->
    let a = Isa.Reg.index a and y = sign32 (mask W n) in
    fun m -> cmp_set m (sign32 (rg m a)) y
  | W, Reg a, Reg b ->
    let a = Isa.Reg.index a and b = Isa.Reg.index b in
    fun m -> cmp_set m (sign32 (rg m a)) (sign32 (rg m b))
  | B, Reg a, Imm n ->
    let a = Isa.Reg.index a and y = mask B n in
    fun m -> cmp_set m (rg m a land 0xFF) y
  | W, _, _ ->
    let ra = reader W a and rb = reader W b in
    fun m ->
      let x = sign32 (ra m) in
      cmp_set m x (sign32 (rb m))
  | B, _, _ ->
    let ra = reader B a and rb = reader B b in
    fun m ->
      let x = ra m in
      cmp_set m x (rb m)

let[@inline] flags_next m r =
  set_flags m r;
  next m

(* As [test_ops], whose [land] evaluates its right operand first. *)
let compile_test (a : Isa.Operand.t) (b : Isa.Operand.t) : t -> unit =
  match a, b with
  | Reg a, Reg b ->
    let a = Isa.Reg.index a and b = Isa.Reg.index b in
    fun m -> flags_next m (rg m a land rg m b)
  | Reg a, Imm n ->
    let a = Isa.Reg.index a and k = mask W n in
    fun m -> flags_next m (rg m a land k)
  | _ ->
    let ra = reader W a and rb = reader W b in
    fun m ->
      let y = rb m in
      flags_next m (ra m land y)

(* As [push]: the stack pointer is stored masked, but the word is
   written at the unmasked address, so an empty stack faults at -4. *)
let[@inline] push_next m v =
  let sp = rg m esp - 4 in
  Array.unsafe_set m.regs esp (sp land m32);
  write_word m sp v;
  next m

let compile_push (a : Isa.Operand.t) : t -> unit =
  match a with
  | Reg r ->
    let r = Isa.Reg.index r in
    fun m -> push_next m (rg m r)
  | Imm n ->
    let v = mask W n in
    fun m -> push_next m v
  | Mem _ ->
    let src = reader W a in
    fun m -> push_next m (src m)

(* As [pop_op]: a memory destination's address sees the popped stack
   pointer. *)
let compile_pop (dst : Isa.Operand.t) : t -> unit =
  match dst with
  | Reg r ->
    let r = Isa.Reg.index r in
    fun m ->
      let sp = rg m esp in
      let v = read_word m sp in
      Array.unsafe_set m.regs esp ((sp + 4) land m32);
      set_r m r v
  | Mem r ->
    let ea = ea_fn r in
    fun m ->
      let sp = rg m esp in
      let v = read_word m sp in
      Array.unsafe_set m.regs esp ((sp + 4) land m32);
      write_word m (ea m) v;
      next m
  | Imm _ -> not_body_safe ()

let compile_insn (insn : Isa.Insn.t) : t -> unit =
  match insn with
  | Mov (sz, dst, src) -> compile_mov sz dst src
  | Lea (r, ref) ->
    let r = Isa.Reg.index r and ea = ea_fn ref in
    fun m -> set_r m r (ea m)
  | Add (d, s) -> compile_alu A_add d s
  | Sub (d, s) -> compile_alu A_sub d s
  | And (d, s) -> compile_alu A_and d s
  | Or (d, s) -> compile_alu A_or d s
  | Xor (d, s) -> compile_alu A_xor d s
  | Mul (d, s) -> compile_alu A_mul d s
  | Shl (d, s) -> compile_alu A_shl d s
  | Shr (d, s) -> compile_alu A_shr d s
  | Inc d -> compile_alu A_add d (Imm 1)
  | Dec d -> compile_alu A_sub d (Imm 1)
  | Cmp (sz, a, b) -> compile_cmp sz a b
  | Test (a, b) -> compile_test a b
  | Push a -> compile_push a
  | Pop dst -> compile_pop dst
  | Cpuid -> cpuid
  | Nop -> next
  | Div _ | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt -> not_body_safe ()

(* A [Jcc] to an immediate target, as [exec] runs it after a compiled
   body: the condition and the masked target are fixed here, and
   control flow leaves the next instruction at a block start, as
   [step_in] would.  A direct branch carries no taint, so nothing is
   lost by running it without [pre_insn]. *)
let[@inline] branch m taken a =
  if taken then m.eip <- a else next m;
  m.at_bb_start <- true

let compile_jcc (c : Isa.Insn.cond) target : t -> unit =
  let a = target land m32 in
  match c with
  | Z -> fun m -> branch m m.zf a
  | NZ -> fun m -> branch m (not m.zf) a
  | L -> fun m -> branch m m.lt a
  | GE -> fun m -> branch m (not m.lt) a
  | LE -> fun m -> branch m (m.lt || m.zf) a
  | G -> fun m -> branch m (not (m.lt || m.zf)) a
  | S -> fun m -> branch m m.sf a
  | NS -> fun m -> branch m (not m.sf) a

(* [link ops k stop last] is the body [k, stop) as one closure calling
   the filled slots in order, then [last] if given. *)
let rec link ops k stop last =
  let f = Option.get ops.(k) in
  if k + 1 = stop then
    match last with
    | None -> f
    | Some j ->
      fun m ->
        f m;
        j m
  else begin
    let rest = link ops (k + 1) stop last in
    fun m ->
      f m;
      rest m
  end

(* The chain for the body of [len] instructions at [off], built on its
   first run: empty slots are compiled (and counted as decoded), the
   body is linked alone and, when the segment's next instruction is a
   [Jcc] to an immediate target, once more with that branch fused on,
   and the chain is stored beside the slots for every machine mapping
   the image. *)
let chain_for m seg off len =
  match Array.unsafe_get seg.seg_chains off with
  | Some c -> c
  | None ->
    for k = off to off + len - 1 do
      if Option.is_none seg.seg_ops.(k) then begin
        m.n_decoded <- m.n_decoded + 1;
        seg.seg_ops.(k) <- Some (compile_insn seg.seg_insns.(k))
      end
    done;
    let next = off + len in
    let branch =
      if next = Array.length seg.seg_insns then None
      else
        match seg.seg_insns.(next) with
        | Jcc (cond, Imm target) -> Some (compile_jcc cond target)
        | _ -> None
    in
    let body = link seg.seg_ops off next None in
    let c =
      match branch with
      | None -> { ch_body = body; ch_fused = body; ch_len = len }
      | Some _ ->
        { ch_body = body; ch_fused = link seg.seg_ops off next branch;
          ch_len = len + 1 }
    in
    seg.seg_chains.(off) <- Some c;
    c

(* Tiered dispatch: at a basic-block start whose straight-line body fits
   the remaining [fuel], offer the block to the [on_block] hook.  If it
   accepts (the tier policy has promoted the block and applied — or
   deliberately skipped — its taint summary), the body runs as its
   compiled chain with no per-instruction hook calls.  A [Jcc] to an
   immediate target right after the body runs fused on the chain when
   the fuel covers it too, so a hot loop's whole iteration is one
   dispatch; every other terminator, and every other case, takes the
   interpreted [step] path unchanged.  Per-instruction accounting is
   hoisted to one add per kind — the fused branch counts what its
   interpreted step would have: one instruction, one fetch-cache hit
   and no block — and, on a mid-body fault, rolled back to the
   faulting instruction, whose index is [eip - leader] because every
   body instruction advances [eip] by one.  The number of instructions
   retired (for quantum accounting) is left in [m.retired]. *)
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
        let c = chain_for m seg off len in
        let n = if c.ch_len <= fuel then c.ch_len else len in
        (* the first fetch was counted by [seg_for]; the rest of the
           body and the branch would all hit the one-entry cache *)
        m.retired <- n;
        m.n_insns <- m.n_insns + n;
        m.n_fetch_hits <- m.n_fetch_hits + (n - 1);
        match (if n = len then c.ch_body else c.ch_fused) m with
        | () -> Continue
        | exception Fault_exn f ->
          let i = m.eip - (seg.seg_base + off) in
          m.status <- Faulted f;
          m.retired <- i + 1;
          m.n_insns <- m.n_insns + (i + 1 - n);
          m.n_fetch_hits <- m.n_fetch_hits + (i - (n - 1));
          Stopped m.status
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
