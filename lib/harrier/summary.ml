(* Compiled per-block taint transfer summaries.

   [make] lowers an [Isa.Block.flow] — the block's Section 7.3.1 taint
   transfer expressed over block-entry state — into flat arrays that
   [apply] can replay against a live [Shadow.t]: evaluate every touched
   address (affine over the machine's entry registers), bounds-check
   them all (any miss means the interpreter must run the block so the
   fault surfaces at exactly the right instruction), gather the block's
   inputs from the {e entry} shadow, re-evaluate the taint expressions
   those inputs reach, then apply the writes in program order.  Ranges
   whose addresses share their register part — a loop's load and store
   through one index — differ by constants, so that part is evaluated
   once and one check covers the span of all of them.

   [make] keeps only live expressions — those a surviving write or a
   guard reads; a register written twice in a block keeps only its
   last write — and lists the block's distinct input registers and
   distinct read ranges once.  [apply] gathers them into one memo
   vector, reading each range from the shadow once however many
   expressions use it.  Tag sets are interned, so "this input is as it
   was last time" is one pointer compare; when every input is, a tight
   guest loop whose operand tags have stabilized (the overwhelmingly
   common case) skips expression evaluation entirely and touches
   neither the shadow nor the union memo beyond the gather and its
   stores.  Otherwise only the expressions that read a changed input
   are re-unioned from the vector, each over its own inputs in a fixed
   order, so the union memo sees one union per input of each
   expression whose value can have moved.

   [apply] is the whole point of the compiled tier, so it is written to
   do no heap allocation on the steady-state path: the loops are
   top-level tail recursions over parallel arrays (no closures, no ref
   cells, no tuple keys), registers are pre-resolved to indices into the
   machine's and the shadow's register files, and the result is a bool
   with the guard read back from the evaluated tags.

   Summaries are built per run and applied single-threaded, so the
   memo and scratch arrays live inside the summary value. *)

(* The touched ranges whose addresses share one linear part
   [Σ coef·entry_reg]: they differ only by constant displacements, so
   one evaluation of that sum and one bounds check over the span they
   cover together stand for a check of each. *)
type base = {
  b_regs : int array;  (* register indices, parallel with [b_coefs] *)
  b_coefs : int array;
  b_lo : int;  (* least displacement of its ranges *)
  b_hi : int;  (* greatest displacement + length of its ranges *)
}

(* A touched range: [base + disp, base + disp + len). *)
type range = {
  r_base : int;  (* index into [s_bases] *)
  r_disp : int;
  r_len : int;
}

(* A live taint expression: the union of its memo-vector slots, in the
   order [Isa.Block.texpr] lists its registers then its ranges, plus
   the image and hardware tags. *)
type ctex = {
  c_slots : int array;
  c_mask : int;  (* [slot_bit] of every slot; [const_bit] when none *)
  c_imm : bool;
  c_hw : bool;
}

type cwrite =
  | W_reg of int * int  (* register index, texpr index *)
  | W_mem of int * int  (* range index, texpr index *)

type t = {
  s_space : Taint.Space.t;
  s_imm : Taint.Tagset.t;  (* the image's BINARY provenance tag *)
  s_hw : Taint.Tagset.t;
  s_bases : base array;  (* the bounds precondition *)
  s_ranges : range array;  (* every touched range *)
  s_in_regs : int array;  (* distinct input registers: slots [0, nr) *)
  s_in_mems : int array;
      (* distinct read ranges, indices into [s_ranges]: slots [nr, nr+nm) *)
  s_in : Taint.Tagset.t array;  (* memo: the last application's inputs *)
  mutable s_fresh : bool;  (* no application has evaluated [s_texprs] *)
  s_texprs : ctex array;  (* live only: a write or a guard reads each *)
  s_writes : cwrite array;
      (* program order, one per register (the last); later memory
         writes win *)
  s_guards : int array;  (* texpr indices, program order *)
  s_vals : int array;  (* scratch: evaluated linear part per base *)
  s_tags : Taint.Tagset.t array;  (* evaluated tag per texpr *)
}

(* Which expressions an input change invalidates, as a bit mask over
   the memo-vector slots.  Slots past [max_bit] share its bit (so they
   re-evaluate together); [const_bit] stands for "never applied". *)
let max_bit = 61
let const_bit = 1 lsl 62
let[@inline] slot_bit k = 1 lsl (if k < max_bit then k else max_bit)

(* [index_of l] is [x]'s position in the growing list [l] of distinct
   values, adding it at the end when absent. *)
let index_of l x =
  let rec find i = function
    | [] ->
      l := !l @ [ x ];
      i
    | y :: ys -> if y = x then i else find (i + 1) ys
  in
  find 0 !l

let make ~space ~imm_tag (flow : Isa.Block.flow) =
  (* dedupe the touched ranges; every range a texpr or write mentions
     was recorded in [f_addrs] by the analysis *)
  let ranges = ref [] in
  List.iter (fun r -> ignore (index_of ranges r)) flow.f_addrs;
  let ranges = Array.of_list !ranges in
  let coefs = ref [] in
  Array.iter
    (fun ((av : Isa.Block.avalue), _) -> ignore (index_of coefs av.av_coefs))
    ranges;
  let compile_base c =
    let b_lo, b_hi =
      Array.fold_left
        (fun (lo, hi) ((av : Isa.Block.avalue), len) ->
          if av.av_coefs = c then (min lo av.av_disp, max hi (av.av_disp + len))
          else (lo, hi))
        (max_int, min_int) ranges
    in
    { b_regs = Array.of_list (List.map (fun (r, _) -> Isa.Reg.index r) c);
      b_coefs = Array.of_list (List.map snd c);
      b_lo;
      b_hi }
  in
  let compile_range ((av : Isa.Block.avalue), len) =
    { r_base = index_of coefs av.av_coefs; r_disp = av.av_disp; r_len = len }
  in
  let addr_index r =
    let rec find i =
      if i >= Array.length ranges then
        invalid_arg "Summary.make: unrecorded range"
      else if ranges.(i) = r then i
      else find (i + 1)
    in
    find 0
  in
  (* Only the last write to a register is live: every expression reads
     block-entry state, so an earlier write to the same register is
     never observed.  Its expression is dropped with it unless a live
     write or a guard shares it. *)
  let written = Array.make Isa.Reg.count false in
  let live_writes =
    List.fold_right
      (fun (w : Isa.Block.write) live ->
        match w with
        | W_reg (r, _) when written.(Isa.Reg.index r) -> live
        | W_reg (r, _) ->
          written.(Isa.Reg.index r) <- true;
          w :: live
        | W_mem _ -> w :: live)
      flow.f_writes []
  in
  let texprs = ref [] in
  let writes =
    List.map
      (fun (w : Isa.Block.write) ->
        match w with
        | W_reg (r, x) -> W_reg (Isa.Reg.index r, index_of texprs x)
        | W_mem (av, len, x) ->
          W_mem (addr_index (av, len), index_of texprs x))
      live_writes
  in
  let guards = List.map (index_of texprs) flow.f_guards in
  (* the memo vector: each distinct input once, registers first *)
  let in_regs = ref [] and in_mems = ref [] in
  List.iter
    (fun (x : Isa.Block.texpr) ->
      List.iter (fun r -> ignore (index_of in_regs (Isa.Reg.index r))) x.x_regs;
      List.iter (fun m -> ignore (index_of in_mems (addr_index m))) x.x_mems)
    !texprs;
  let nr = List.length !in_regs in
  let compile_tex (x : Isa.Block.texpr) =
    let slots =
      Array.of_list
        (List.map (fun r -> index_of in_regs (Isa.Reg.index r)) x.x_regs
         @ List.map (fun m -> nr + index_of in_mems (addr_index m)) x.x_mems)
    in
    { c_slots = slots;
      c_mask =
        (if slots = [||] then const_bit
         else Array.fold_left (fun m k -> m lor slot_bit k) 0 slots);
      c_imm = x.x_imm;
      c_hw = x.x_hw }
  in
  let n_in = nr + List.length !in_mems in
  { s_space = space;
    s_imm = imm_tag;
    s_hw = Taint.Tagset.singleton space Taint.Source.Hardware;
    s_bases = Array.of_list (List.map compile_base !coefs);
    s_ranges = Array.map compile_range ranges;
    s_in_regs = Array.of_list !in_regs;
    s_in_mems = Array.of_list !in_mems;
    s_in = Array.make (max 1 n_in) Taint.Tagset.empty;
    s_fresh = true;
    s_texprs = Array.of_list (List.map compile_tex !texprs);
    s_writes = Array.of_list writes;
    s_guards = Array.of_list guards;
    s_vals = Array.make (List.length !coefs) 0;
    s_tags = Array.make (max 1 (List.length !texprs)) Taint.Tagset.empty }

let mem_size = Vm.Machine.mem_size

(* The helpers below are top-level tail recursions over accumulators
   (rather than [for] + [ref], or local closures) so the steady-state
   [apply] allocates nothing at all. *)

let rec eval_terms regs (b : base) k v =
  if k >= Array.length b.b_regs then v
  else
    eval_terms regs b (k + 1)
      (v
       + Array.unsafe_get b.b_coefs k
         * Array.unsafe_get regs (Array.unsafe_get b.b_regs k))

(* 1. evaluate each base's linear part into [s_vals] and bounds-check
   the span of its ranges; [false] on the first miss.  Unmasked
   evaluation is conservative: a wrapped-but-in-bounds address deopts
   rather than risking a mismatch with the CPU. *)
let rec eval_bases s regs i =
  i >= Array.length s.s_bases
  || begin
    let b = Array.unsafe_get s.s_bases i in
    let v = eval_terms regs b 0 0 in
    v + b.b_lo >= 0
    && v + b.b_hi <= mem_size
    && begin
      Array.unsafe_set s.s_vals i v;
      eval_bases s regs (i + 1)
    end
  end

(* The address of range [r], after [eval_bases]. *)
let[@inline] addr s (r : range) = Array.unsafe_get s.s_vals r.r_base + r.r_disp

(* 2. gather every input into the memo vector — each distinct
   register tag and each distinct range, read from the entry shadow
   once — and return the mask of the slots that differ from the last
   application's (tag sets are interned: one pointer compare each) *)
let rec gather_regs s tags k changed =
  if k >= Array.length s.s_in_regs then changed
  else begin
    let t = Array.unsafe_get tags (Array.unsafe_get s.s_in_regs k) in
    if t != Array.unsafe_get s.s_in k then begin
      Array.unsafe_set s.s_in k t;
      gather_regs s tags (k + 1) (changed lor slot_bit k)
    end
    else gather_regs s tags (k + 1) changed
  end

let rec gather_mems s shadow nr k changed =
  if k >= Array.length s.s_in_mems then changed
  else begin
    let r = Array.unsafe_get s.s_ranges (Array.unsafe_get s.s_in_mems k) in
    let t = Shadow.range shadow (addr s r) r.r_len in
    let slot = nr + k in
    if t != Array.unsafe_get s.s_in slot then begin
      Array.unsafe_set s.s_in slot t;
      gather_mems s shadow nr (k + 1) (changed lor slot_bit slot)
    end
    else gather_mems s shadow nr (k + 1) changed
  end

let rec union_slots s x k acc =
  if k >= Array.length x.c_slots then acc
  else
    union_slots s x (k + 1)
      (Taint.Tagset.union s.s_space acc
         (Array.unsafe_get s.s_in (Array.unsafe_get x.c_slots k)))

(* 3. re-evaluate the expressions that read a changed slot, from the
   vector; the others keep their last value *)
let rec eval_texprs s changed i =
  if i < Array.length s.s_texprs then begin
    let x = Array.unsafe_get s.s_texprs i in
    if x.c_mask land changed <> 0 then begin
      let seed =
        if x.c_imm then
          if x.c_hw then Taint.Tagset.union s.s_space s.s_imm s.s_hw
          else s.s_imm
        else if x.c_hw then s.s_hw
        else Taint.Tagset.empty
      in
      let t = union_slots s x 0 seed in
      if Array.unsafe_get s.s_tags i != t then Array.unsafe_set s.s_tags i t
    end;
    eval_texprs s changed (i + 1)
  end

(* the last compare/test evaluating non-empty is the guard *)
let rec last_guard s i acc =
  if i >= Array.length s.s_guards then acc
  else
    let t = Array.unsafe_get s.s_tags (Array.unsafe_get s.s_guards i) in
    last_guard s (i + 1) (if t == Taint.Tagset.empty then acc else t)

let guard s = last_guard s 0 Taint.Tagset.empty

let apply s shadow m =
  (* 1. a single bounds miss deopts the whole block (the interpreter
     re-runs it and faults at the precise instruction) *)
  eval_bases s (Vm.Machine.regs m) 0
  && begin
    let tags = Shadow.regs shadow in
    let changed = gather_regs s tags 0 0 in
    let changed =
      gather_mems s shadow (Array.length s.s_in_regs) 0 changed
    in
    let changed =
      if s.s_fresh then begin
        s.s_fresh <- false;
        -1
      end
      else changed
    in
    (* every input as last time: every expression's value stands *)
    if changed <> 0 then eval_texprs s changed 0;
    (* 4. apply writes in program order; a register that already holds
       its new tag is not stored again *)
    for i = 0 to Array.length s.s_writes - 1 do
      match Array.unsafe_get s.s_writes i with
      | W_reg (r, x) ->
        let t = Array.unsafe_get s.s_tags x in
        if Array.unsafe_get tags r != t then Array.unsafe_set tags r t
      | W_mem (ri, x) ->
        let r = Array.unsafe_get s.s_ranges ri in
        Shadow.set_range shadow (addr s r) r.r_len
          (Array.unsafe_get s.s_tags x)
    done;
    true
  end
