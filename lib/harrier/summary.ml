(* Compiled per-block taint transfer summaries.

   [make] lowers an [Isa.Block.flow] — the block's Section 7.3.1 taint
   transfer expressed over block-entry state — into flat arrays that
   [apply] can replay against a live [Shadow.t]: evaluate every touched
   address (affine over the machine's entry registers), bounds-check
   them all (any miss means the interpreter must run the block so the
   fault surfaces at exactly the right instruction), evaluate every
   taint expression against the {e entry} shadow, then apply the writes
   in program order.

   [apply] is the whole point of the compiled tier, so it is written to
   do no heap allocation on the steady-state path: the loops are
   top-level tail recursions over parallel arrays (no closures, no ref
   cells, no tuple keys), registers are pre-resolved to indices into the
   machine's and the shadow's register files (read directly, not through
   a call per access), the result is a bool with the guard read back
   from the scratch tags, and every taint expression memoizes its last
   input tags.  Tag sets are interned, so "the inputs didn't change
   since the previous application" is a handful of pointer compares —
   and a tight guest loop whose operand tags have stabilized (the
   overwhelmingly common case) replays its entire transfer without
   touching the union memo at all.

   Summaries are built per run and applied single-threaded, so the
   scratch and memo arrays live inside the summary value. *)

type addr = {
  a_regs : int array;  (* register indices, parallel with [a_coefs] *)
  a_coefs : int array;
  a_disp : int;
  a_len : int;
}

type ctex = {
  c_regs : int array;  (* register indices: entry register tags *)
  c_mems : int array;  (* indices into [s_addrs], entry range tags *)
  c_imm : bool;
  c_hw : bool;
  c_in : Taint.Tagset.t array;  (* memo: last input tags, regs then mems *)
  mutable c_out : Taint.Tagset.t;  (* memo: union of [c_in] (+ imm/hw) *)
  mutable c_valid : bool;  (* [c_in]/[c_out] hold a real evaluation *)
}

type cwrite =
  | W_reg of int * int  (* register index, texpr index *)
  | W_mem of int * int  (* addr index, texpr index *)

type t = {
  s_space : Taint.Space.t;
  s_imm : Taint.Tagset.t;  (* the image's BINARY provenance tag *)
  s_hw : Taint.Tagset.t;
  s_addrs : addr array;
  s_texprs : ctex array;
  s_writes : cwrite array;  (* program order; later writes win *)
  s_guards : int array;  (* texpr indices, program order *)
  s_vals : int array;  (* scratch: evaluated address per s_addrs entry *)
  s_tags : Taint.Tagset.t array;  (* scratch: evaluated tag per texpr *)
}

let compile_avalue (av : Isa.Block.avalue) len =
  { a_regs =
      Array.of_list (List.map (fun (r, _) -> Isa.Reg.index r) av.av_coefs);
    a_coefs = Array.of_list (List.map snd av.av_coefs);
    a_disp = av.av_disp;
    a_len = len }

let make ~space ~imm_tag (flow : Isa.Block.flow) =
  (* dedupe the touched ranges; every range a texpr or write mentions
     was recorded in [f_addrs] by the analysis *)
  let ranges = ref [] in
  List.iter
    (fun r -> if not (List.mem r !ranges) then ranges := r :: !ranges)
    flow.f_addrs;
  let ranges = Array.of_list (List.rev !ranges) in
  let addr_index (av, len) =
    let rec find i =
      if i >= Array.length ranges then
        invalid_arg "Summary.make: unrecorded range"
      else if ranges.(i) = (av, len) then i
      else find (i + 1)
    in
    find 0
  in
  let texprs = ref [] and n_texprs = ref 0 in
  let tex_index (x : Isa.Block.texpr) =
    match List.assoc_opt x !texprs with
    | Some i -> i
    | None ->
      let i = !n_texprs in
      texprs := (x, i) :: !texprs;
      incr n_texprs;
      i
  in
  let writes =
    List.map
      (fun (w : Isa.Block.write) ->
        match w with
        | Isa.Block.W_reg (r, x) -> W_reg (Isa.Reg.index r, tex_index x)
        | Isa.Block.W_mem (av, len, x) ->
          W_mem (addr_index (av, len), tex_index x))
      flow.f_writes
  in
  let guards = List.map tex_index flow.f_guards in
  let compile_tex (x : Isa.Block.texpr) =
    let nr = List.length x.x_regs and nm = List.length x.x_mems in
    { c_regs = Array.of_list (List.map Isa.Reg.index x.x_regs);
      c_mems = Array.of_list (List.map addr_index x.x_mems);
      c_imm = x.x_imm;
      c_hw = x.x_hw;
      c_in = Array.make (max 1 (nr + nm)) Taint.Tagset.empty;
      c_out = Taint.Tagset.empty;
      c_valid = false }
  in
  let by_index = List.sort (fun (_, i) (_, j) -> compare i j) !texprs in
  { s_space = space;
    s_imm = imm_tag;
    s_hw = Taint.Tagset.singleton space Taint.Source.Hardware;
    s_addrs = Array.map (fun (av, len) -> compile_avalue av len) ranges;
    s_texprs = Array.of_list (List.map (fun (x, _) -> compile_tex x) by_index);
    s_writes = Array.of_list writes;
    s_guards = Array.of_list guards;
    s_vals = Array.make (Array.length ranges) 0;
    s_tags = Array.make (max 1 !n_texprs) Taint.Tagset.empty }

let mem_size = Vm.Machine.mem_size

(* The helpers below are top-level tail recursions over accumulators
   (rather than [for] + [ref], or local closures) so the steady-state
   [apply] allocates nothing at all. *)

let rec eval_terms regs (a : addr) k v =
  if k >= Array.length a.a_regs then v
  else
    eval_terms regs a (k + 1)
      (v
       + Array.unsafe_get a.a_coefs k
         * Array.unsafe_get regs (Array.unsafe_get a.a_regs k))

(* Evaluate every touched address into [s_vals]; [false] on the first
   bounds miss.  Unmasked evaluation is conservative: a
   wrapped-but-in-bounds address deopts rather than risking a mismatch
   with the CPU. *)
let rec eval_addrs s m i =
  i >= Array.length s.s_addrs
  || begin
    let a = Array.unsafe_get s.s_addrs i in
    let v = eval_terms (Vm.Machine.regs m) a 0 a.a_disp in
    v >= 0
    && v + a.a_len <= mem_size
    && begin
      Array.unsafe_set s.s_vals i v;
      eval_addrs s m (i + 1)
    end
  end

(* Gather a texpr's entry inputs into its memo slots; the result is
   "every input was pointer-equal to the previous application's". *)
let rec gather_regs tags x k same =
  if k >= Array.length x.c_regs then same
  else begin
    let t = Array.unsafe_get tags (Array.unsafe_get x.c_regs k) in
    if t != Array.unsafe_get x.c_in k then begin
      Array.unsafe_set x.c_in k t;
      gather_regs tags x (k + 1) false
    end
    else gather_regs tags x (k + 1) same
  end

let rec gather_mems s shadow x nr k same =
  if k >= Array.length x.c_mems then same
  else begin
    let ai = Array.unsafe_get x.c_mems k in
    let t =
      Shadow.range shadow
        (Array.unsafe_get s.s_vals ai)
        (Array.unsafe_get s.s_addrs ai).a_len
    in
    if t != Array.unsafe_get x.c_in (nr + k) then begin
      Array.unsafe_set x.c_in (nr + k) t;
      gather_mems s shadow x nr (k + 1) false
    end
    else gather_mems s shadow x nr (k + 1) same
  end

let rec union_inputs sp x k n acc =
  if k >= n then acc
  else
    union_inputs sp x (k + 1) n
      (Taint.Tagset.union sp acc (Array.unsafe_get x.c_in k))

(* 2. evaluate every taint expression against the entry shadow — all
   expressions are entry-relative, so reads must complete before any
   write lands.  When every input matches the previous application's
   (tag sets are interned, so one pointer compare each), the cached
   union is replayed without touching the union memo. *)
let rec eval_texprs s shadow i =
  if i < Array.length s.s_texprs then begin
    let x = Array.unsafe_get s.s_texprs i in
    let nr = Array.length x.c_regs in
    let same = gather_regs (Shadow.regs shadow) x 0 x.c_valid in
    let same = gather_mems s shadow x nr 0 same in
    if not same then begin
      let seed =
        if x.c_imm then
          if x.c_hw then Taint.Tagset.union s.s_space s.s_imm s.s_hw
          else s.s_imm
        else if x.c_hw then s.s_hw
        else Taint.Tagset.empty
      in
      x.c_out <-
        union_inputs s.s_space x 0 (nr + Array.length x.c_mems) seed;
      x.c_valid <- true
    end;
    Array.unsafe_set s.s_tags i x.c_out;
    eval_texprs s shadow (i + 1)
  end

(* 4. the last compare/test evaluating non-empty is the guard *)
let rec last_guard s i acc =
  if i >= Array.length s.s_guards then acc
  else
    let t = Array.unsafe_get s.s_tags (Array.unsafe_get s.s_guards i) in
    last_guard s (i + 1) (if Taint.Tagset.is_empty t then acc else t)

let guard s = last_guard s 0 Taint.Tagset.empty

let apply s shadow m =
  (* 1. evaluate and bounds-check every touched address; a single miss
     deopts the whole block (the interpreter re-runs it and faults at
     the precise instruction) *)
  eval_addrs s m 0
  && begin
    eval_texprs s shadow 0;
    (* 3. apply writes in program order *)
    let n_writes = Array.length s.s_writes in
    let tags = Shadow.regs shadow in
    for i = 0 to n_writes - 1 do
      match Array.unsafe_get s.s_writes i with
      | W_reg (r, x) -> Array.unsafe_set tags r (Array.unsafe_get s.s_tags x)
      | W_mem (ai, x) ->
        Shadow.set_range shadow
          (Array.unsafe_get s.s_vals ai)
          (Array.unsafe_get s.s_addrs ai).a_len
          (Array.unsafe_get s.s_tags x)
    done;
    true
  end
