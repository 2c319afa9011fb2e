(* Property-based tests (qcheck) on the core data structures and
   invariants: tag sets, origin classification, values, s-expressions,
   the machine's memory, the assembler/VM against a reference
   interpreter, the filesystem, and engine refraction. *)

open QCheck
let sp = Taint.Space.create ()

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let source_gen =
  let open Gen in
  oneof
    [ return Taint.Source.User_input;
      return Taint.Source.Hardware;
      map (fun n -> Taint.Source.File ("/f" ^ string_of_int n)) (int_bound 5);
      map (fun n -> Taint.Source.Socket ("s" ^ string_of_int n)) (int_bound 5);
      map (fun n -> Taint.Source.Binary ("/b" ^ string_of_int n))
        (int_bound 5) ]

let source = make ~print:Taint.Source.to_string source_gen

let tagset_gen = Gen.map (Taint.Tagset.of_list sp) (Gen.list_size (Gen.int_bound 6) source_gen)

let tagset = make ~print:Taint.Tagset.to_string tagset_gen

let value_gen =
  let open Gen in
  sized @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ map (fun s -> Expert.Value.Sym ("s" ^ string_of_int s)) (int_bound 9);
            map (fun s -> Expert.Value.Str (String.make (s mod 4) 'x')) (int_bound 9);
            map (fun i -> Expert.Value.Int i) small_signed_int ]
      else
        frequency
          [ 3, self 0;
            1, map (fun l -> Expert.Value.Lst l)
              (list_size (int_bound 3) (self (n / 2))) ])

let value = make ~print:Expert.Value.to_string value_gen

(* ------------------------------------------------------------------ *)
(* Tag sets form a semilattice                                         *)

let prop_union_commutes =
  Test.make ~name:"tagset union commutes" ~count:200 (pair tagset tagset)
    (fun (a, b) ->
      Taint.Tagset.equal ((Taint.Tagset.union sp) a b) ((Taint.Tagset.union sp) b a))

let prop_union_assoc =
  Test.make ~name:"tagset union associates" ~count:200
    (triple tagset tagset tagset) (fun (a, b, c) ->
      Taint.Tagset.equal
        ((Taint.Tagset.union sp) a ((Taint.Tagset.union sp) b c))
        ((Taint.Tagset.union sp) ((Taint.Tagset.union sp) a b) c))

let prop_union_idempotent =
  Test.make ~name:"tagset union idempotent" ~count:200 tagset (fun a ->
      Taint.Tagset.equal a ((Taint.Tagset.union sp) a a))

let prop_union_monotone =
  Test.make ~name:"union preserves membership" ~count:200
    (pair tagset tagset) (fun (a, b) ->
      Taint.Tagset.fold
        (fun s acc -> acc && Taint.Tagset.mem s ((Taint.Tagset.union sp) a b))
        a true)

let prop_of_list_set_semantics =
  Test.make ~name:"of_list deduplicates" ~count:200
    (list_of_size (Gen.int_bound 8) source) (fun l ->
      let t = (Taint.Tagset.of_list sp) l in
      Taint.Tagset.cardinal t
      = List.length (List.sort_uniq Taint.Source.compare l))

(* ------------------------------------------------------------------ *)
(* Interned tag sets agree with a reference Set.Make(Source) model     *)

module Ref_set = Set.Make (Taint.Source)

let same_as_model t model =
  Taint.Tagset.to_list t = Ref_set.elements model
  && Taint.Tagset.cardinal t = Ref_set.cardinal model
  && Taint.Tagset.is_empty t = Ref_set.is_empty model

let prop_interned_union_model =
  Test.make ~name:"interned union matches reference set union" ~count:300
    (pair (list_of_size (Gen.int_bound 8) source)
       (list_of_size (Gen.int_bound 8) source))
    (fun (l1, l2) ->
      let t = (Taint.Tagset.union sp) ((Taint.Tagset.of_list sp) l1)
                ((Taint.Tagset.of_list sp) l2) in
      let model = Ref_set.union (Ref_set.of_list l1) (Ref_set.of_list l2) in
      same_as_model t model)

let prop_interned_add_mem_model =
  Test.make ~name:"interned add/mem match reference set" ~count:300
    (pair source (list_of_size (Gen.int_bound 8) source))
    (fun (s, l) ->
      let t = (Taint.Tagset.add sp) s ((Taint.Tagset.of_list sp) l) in
      let model = Ref_set.add s (Ref_set.of_list l) in
      same_as_model t model
      && Taint.Tagset.mem s t
      && List.for_all
           (fun x -> Taint.Tagset.mem x t = Ref_set.mem x model)
           (s :: l))

let prop_interned_equal_is_extensional =
  Test.make ~name:"interned equal/compare agree with element equality"
    ~count:300
    (pair (list_of_size (Gen.int_bound 8) source)
       (list_of_size (Gen.int_bound 8) source))
    (fun (l1, l2) ->
      let a = (Taint.Tagset.of_list sp) l1 and b = (Taint.Tagset.of_list sp) l2 in
      let extensional = Ref_set.equal (Ref_set.of_list l1) (Ref_set.of_list l2) in
      Taint.Tagset.equal a b = extensional
      && (Taint.Tagset.compare a b = 0) = extensional
      && (Taint.Tagset.id a = Taint.Tagset.id b) = extensional)

let prop_interned_filter_model =
  Test.make ~name:"interned filter matches reference set filter" ~count:300
    (list_of_size (Gen.int_bound 8) source)
    (fun l ->
      let keep s = Taint.Source.resource_name s <> None in
      same_as_model
        ((Taint.Tagset.filter sp) keep ((Taint.Tagset.of_list sp) l))
        (Ref_set.filter keep (Ref_set.of_list l)))

(* ------------------------------------------------------------------ *)
(* Origin classification dominance                                     *)

let no_trust (_ : Taint.Source.t) = false

let prop_origin_socket_dominates =
  Test.make ~name:"a socket source always dominates classification"
    ~count:200 tagset (fun t ->
      match Taint.Tagset.sockets t with
      | [] -> QCheck.assume_fail ()
      | _ ->
        (match Taint.Origin.classify ~trusted:no_trust t with
         | Taint.Origin.From_socket _ -> true
         | _ -> false))

let prop_origin_empty_unknown =
  Test.make ~name:"trusting everything yields Unknown" ~count:100 tagset
    (fun t ->
      Taint.Origin.classify ~trusted:(fun _ -> true) t
      = Taint.Origin.Unknown)

let prop_origin_classify_all_consistent =
  Test.make ~name:"classify is the head of classify_all" ~count:200 tagset
    (fun t ->
      match Taint.Origin.classify_all ~trusted:no_trust t with
      | [] -> Taint.Origin.classify ~trusted:no_trust t = Taint.Origin.Unknown
      | k :: _ ->
        Taint.Origin.equal_kind k
          (Taint.Origin.classify ~trusted:no_trust t))

(* ------------------------------------------------------------------ *)
(* Expert values and s-expressions                                     *)

let prop_value_compare_refl =
  Test.make ~name:"value compare reflexive" ~count:200 value (fun v ->
      Expert.Value.compare v v = 0 && Expert.Value.equal v v)

let prop_value_compare_antisym =
  Test.make ~name:"value compare antisymmetric" ~count:200
    (pair value value) (fun (a, b) ->
      let c = Expert.Value.compare a b and c' = Expert.Value.compare b a in
      (c = 0) = (c' = 0) && (c > 0) = (c' < 0))

let rec sexp_of_value (v : Expert.Value.t) : Expert.Sexp.t =
  match v with
  | Sym s -> Expert.Sexp.Atom s
  | Str s -> Expert.Sexp.Quoted s
  | Int n -> Expert.Sexp.Atom (string_of_int n)
  | Lst l -> Expert.Sexp.List (List.map sexp_of_value l)

let prop_sexp_roundtrip =
  Test.make ~name:"sexp print/parse round trip" ~count:200 value (fun v ->
      let s = sexp_of_value v in
      let printed = Fmt.to_to_string Expert.Sexp.pp s in
      Expert.Sexp.parse printed = s)

(* ------------------------------------------------------------------ *)
(* Machine memory                                                      *)

let prop_word_roundtrip =
  Test.make ~name:"machine word store/load round trip" ~count:200
    (pair (int_bound 0xFFF0) (int_bound 0xFFFFFFF)) (fun (addr, v) ->
      let m = Vm.Machine.create () in
      Vm.Machine.write_word m addr v;
      Vm.Machine.read_word m addr = v land 0xFFFFFFFF)

let prop_string_roundtrip =
  Test.make ~name:"machine string write/read round trip" ~count:200
    (pair (int_bound 0xF000) string_printable) (fun (addr, s) ->
      let m = Vm.Machine.create () in
      Vm.Machine.write_string m addr s;
      Vm.Machine.read_bytes m addr (String.length s) = s)

(* ------------------------------------------------------------------ *)
(* Random straight-line programs vs a reference interpreter            *)

type rop = Radd | Rsub | Rxor | Rand | Ror | Rmul

let rop_gen = Gen.oneofl [ Radd; Rsub; Rxor; Rand; Ror; Rmul ]

let reference_step (a, b) (op, operand_is_b, k) =
  let rhs = if operand_is_b then b else k in
  let a' =
    match op with
    | Radd -> a + rhs
    | Rsub -> a - rhs
    | Rxor -> a lxor rhs
    | Rand -> a land rhs
    | Ror -> a lor rhs
    | Rmul -> a * rhs
  in
  (a' land 0xFFFFFFFF), b

let insn_of_step (op, operand_is_b, k) : Isa.Insn.t =
  let src : Isa.Operand.t = if operand_is_b then Reg EBX else Imm k in
  match op with
  | Radd -> Add (Reg EAX, src)
  | Rsub -> Sub (Reg EAX, src)
  | Rxor -> Xor (Reg EAX, src)
  | Rand -> And (Reg EAX, src)
  | Ror -> Or (Reg EAX, src)
  | Rmul -> Mul (Reg EAX, src)

let program_gen =
  Gen.(
    triple (int_bound 0xFFFF) (int_bound 0xFFFF)
      (list_size (int_bound 20)
         (triple rop_gen bool (int_bound 0xFFFF))))

let prop_machine_matches_reference =
  Test.make ~name:"machine ALU agrees with reference interpreter"
    ~count:300
    (make
       ~print:(fun (a, b, steps) ->
         Printf.sprintf "eax=%d ebx=%d steps=%d" a b (List.length steps))
       program_gen)
    (fun (a0, b0, steps) ->
      let expected, _ = List.fold_left reference_step (a0, b0) steps in
      let insns = List.map insn_of_step steps @ [ Isa.Insn.Hlt ] in
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0x1000 ~text:(Array.of_list insns) ~sections:[]
          ~exports:[] ~relocs:[] ~needed:[] ~entry:0x1000
      in
      let m = Vm.Machine.create () in
      Vm.Machine.map_image m img;
      Vm.Machine.set_eip m 0x1000;
      Vm.Machine.set_reg m EAX a0;
      Vm.Machine.set_reg m EBX b0;
      let rec go n =
        if n > 100 then failwith "runaway"
        else
          match Vm.Machine.step m with
          | Vm.Machine.Stopped _ -> ()
          | _ -> go (n + 1)
      in
      go 0;
      Vm.Machine.get_reg m EAX = expected)

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)

let prop_fs_roundtrip =
  Test.make ~name:"fs write_at/read_at round trip" ~count:200
    (pair (int_bound 200) string_printable) (fun (pos, s) ->
      let fs = Osim.Fs.create () in
      let f = Osim.Fs.ensure fs "/x" in
      Osim.Fs.write_at f ~pos s;
      Osim.Fs.read_at f ~pos ~len:(String.length s) = s)

(* ------------------------------------------------------------------ *)
(* Shadow memory behaves like a per-byte map                           *)

let prop_shadow_range_union =
  Test.make ~name:"shadow range is the union of its bytes" ~count:100
    (list_of_size (Gen.int_bound 6) (pair (int_bound 16) tagset))
    (fun writes ->
      let s = Harrier.Shadow.create ~space:sp () in
      List.iter (fun (a, t) -> Harrier.Shadow.set_byte s a t) writes;
      let expected =
        List.fold_left
          (fun acc a -> (Taint.Tagset.union sp) acc (Harrier.Shadow.byte s a))
          Taint.Tagset.empty
          (List.init 17 Fun.id)
      in
      Taint.Tagset.equal expected (Harrier.Shadow.range s 0 17))

(* ------------------------------------------------------------------ *)
(* Paged shadow memory agrees with a per-byte map model; operations
   straddle the 4 KiB page boundary on purpose                         *)

type shadow_op =
  | Sset_byte of int * Taint.Tagset.t
  | Sset_range of int * int * Taint.Tagset.t

(* Addresses in [4064, 4064+96): ops cross the page_size = 4096 edge. *)
let shadow_base = 4064
let shadow_span = 96

let shadow_op_gen =
  let open Gen in
  let addr = map (fun o -> shadow_base + o) (int_bound (shadow_span - 1)) in
  oneof
    [ map2 (fun a t -> Sset_byte (a, t)) addr tagset_gen;
      map3 (fun a len t -> Sset_range (a, len, t)) addr (int_bound 40)
        tagset_gen ]

let shadow_ops =
  make
    ~print:(fun ops -> Printf.sprintf "%d shadow ops" (List.length ops))
    (Gen.list_size (Gen.int_bound 12) shadow_op_gen)

let model_apply model = function
  | Sset_byte (a, t) ->
    if Taint.Tagset.is_empty t then Hashtbl.remove model a
    else Hashtbl.replace model a t
  | Sset_range (a, len, t) ->
    for i = a to a + len - 1 do
      if Taint.Tagset.is_empty t then Hashtbl.remove model i
      else Hashtbl.replace model i t
    done

let model_byte model a =
  Option.value (Hashtbl.find_opt model a) ~default:Taint.Tagset.empty

let model_range model a len =
  let acc = ref Taint.Tagset.empty in
  for i = a to a + len - 1 do
    acc := (Taint.Tagset.union sp) !acc (model_byte model i)
  done;
  !acc

let prop_shadow_matches_byte_map =
  Test.make ~name:"paged shadow agrees with a byte-map model" ~count:300
    shadow_ops
    (fun ops ->
      let s = Harrier.Shadow.create ~space:sp () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
           | Sset_byte (a, t) -> Harrier.Shadow.set_byte s a t
           | Sset_range (a, len, t) -> Harrier.Shadow.set_range s a len t);
          model_apply model op)
        ops;
      let bytes_agree =
        List.for_all
          (fun i ->
            let a = shadow_base + i in
            Taint.Tagset.equal (Harrier.Shadow.byte s a) (model_byte model a))
          (List.init shadow_span Fun.id)
      in
      bytes_agree
      && Taint.Tagset.equal
           (Harrier.Shadow.range s shadow_base shadow_span)
           (model_range model shadow_base shadow_span)
      && Harrier.Shadow.tagged_bytes s = Hashtbl.length model)

let prop_shadow_clone_independent =
  Test.make ~name:"shadow clone is a deep copy" ~count:100
    (pair shadow_ops shadow_ops)
    (fun (ops, after) ->
      let s = Harrier.Shadow.create ~space:sp () in
      List.iter
        (function
          | Sset_byte (a, t) -> Harrier.Shadow.set_byte s a t
          | Sset_range (a, len, t) -> Harrier.Shadow.set_range s a len t)
        ops;
      let snapshot =
        List.init shadow_span (fun i -> Harrier.Shadow.byte s (shadow_base + i))
      in
      let c = Harrier.Shadow.clone s in
      List.iter
        (function
          | Sset_byte (a, t) -> Harrier.Shadow.set_byte c a t
          | Sset_range (a, len, t) -> Harrier.Shadow.set_range c a len t)
        after;
      List.for_all2
        (fun expected i ->
          Taint.Tagset.equal expected (Harrier.Shadow.byte s (shadow_base + i)))
        snapshot
        (List.init shadow_span Fun.id))

(* ------------------------------------------------------------------ *)
(* Engine refraction                                                   *)

let prop_engine_refraction =
  Test.make ~name:"a second run never re-fires" ~count:50
    (int_bound 5) (fun n ->
      let e = Expert.Engine.create () in
      Expert.Engine.deftemplate e
        (Expert.Template.make "t" [ Expert.Template.slot "v" ]);
      Expert.Engine.defrule e
        (Expert.Engine.rule ~name:"r" [ Expert.Pattern.make "t" [] ]
           (fun _ _ _ -> ()));
      for i = 1 to n do
        ignore (Expert.Engine.assert_fact e "t" [ "v", Expert.Value.Int i ])
      done;
      let first = Expert.Engine.run e in
      let second = Expert.Engine.run e in
      first = n && second = 0)

(* ------------------------------------------------------------------ *)
(* Secure binaries: a program with no data sections is trivially
   secure                                                              *)

let prop_secure_no_data =
  Test.make ~name:"no data sections implies Secure Binary" ~count:50
    (list_of_size (Gen.int_bound 10)
       (make ~print:(fun _ -> "<insn>")
          (Gen.oneofl
             [ Isa.Insn.Nop; Isa.Insn.Cpuid;
               Isa.Insn.Mov (W, Reg EAX, Imm 5); Isa.Insn.Int 0x80 ])))
    (fun insns ->
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0 ~text:(Array.of_list insns) ~sections:[] ~exports:[]
          ~relocs:[] ~needed:[] ~entry:0
      in
      Hth.Secure_binary.is_secure img)

(* ------------------------------------------------------------------ *)
(* Taint propagation vs a reference shadow interpreter                  *)

(* ops over 4 registers: mov r<-r, mov r<-imm, alu r<-r *)
type top = Tmov_rr | Tmov_ri | Talu

let treg_gen = Gen.oneofl [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX;
                            Isa.Reg.EDX ]

let tstep_gen =
  Gen.(triple (oneofl [ Tmov_rr; Tmov_ri; Talu ]) treg_gen treg_gen)

let imm_tag = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/img")

let reference_taint tags (op, dst, src) =
  let get r = List.assoc (Isa.Reg.index r) tags in
  let set r v =
    (Isa.Reg.index r, v)
    :: List.remove_assoc (Isa.Reg.index r) tags
  in
  match op with
  | Tmov_rr -> set dst (get src)
  | Tmov_ri -> set dst imm_tag
  | Talu -> set dst ((Taint.Tagset.union sp) (get dst) (get src))

let insn_of_tstep (op, dst, src) : Isa.Insn.t =
  match op with
  | Tmov_rr -> Mov (W, Reg dst, Reg src)
  | Tmov_ri -> Mov (W, Reg dst, Imm 7)
  | Talu -> Add (Reg dst, Reg src)

let prop_dataflow_matches_reference =
  Test.make ~name:"dataflow agrees with reference taint interpreter"
    ~count:200
    (make
       ~print:(fun (init, steps) ->
         Printf.sprintf "init=%d steps=%d" (List.length init)
           (List.length steps))
       Gen.(pair (list_size (return 4) tagset_gen)
              (list_size (int_bound 15) tstep_gen)))
    (fun (init, steps) ->
      let init =
        (* pad/trim to exactly 4 register tags *)
        let rec take n = function
          | _ when n = 0 -> []
          | [] -> Taint.Tagset.empty :: take (n - 1) []
          | x :: rest -> x :: take (n - 1) rest
        in
        take 4 init
      in
      let m = Vm.Machine.create () in
      let shadow = Harrier.Shadow.create ~space:sp () in
      List.iteri
        (fun i t -> Harrier.Shadow.set_reg shadow (Isa.Reg.of_index i) t)
        init;
      let reference =
        List.fold_left reference_taint
          (List.mapi (fun i t -> i, t) init)
          steps
      in
      List.iter
        (fun step ->
          Harrier.Dataflow.step shadow m ~imm_tag (insn_of_tstep step))
        steps;
      List.for_all
        (fun (i, expected) ->
          Taint.Tagset.equal expected
            (Harrier.Shadow.reg shadow (Isa.Reg.of_index i)))
        reference)

(* ------------------------------------------------------------------ *)
(* Observability counters vs ground truth: run a random straight-line
   program (ALU steps, then 0-3 writes to stdout, then Hlt) under a
   full session and check the counters the run collected against
   quantities we can compute exactly.                                   *)

let write_block : Isa.Insn.t list =
  [ Mov (W, Reg EAX, Imm 4) (* SYS_write *);
    Mov (W, Reg EBX, Imm 1) (* stdout *);
    Mov (W, Reg ECX, Imm 0x4000);
    Mov (W, Reg EDX, Imm 8);
    Int 0x80 ]

let prop_obs_counters_ground_truth =
  Test.make ~name:"obs counters agree with ground truth" ~count:30
    (make
       ~print:(fun (steps, writes) ->
         Printf.sprintf "alu=%d writes=%d" (List.length steps) writes)
       Gen.(
         pair
           (list_size (int_bound 15)
              (triple rop_gen bool (int_bound 0xFFFF)))
           (int_bound 3)))
    (fun (steps, writes) ->
      let insns =
        List.map insn_of_step steps
        @ List.concat (List.init writes (fun _ -> write_block))
        @ [ Isa.Insn.Hlt ]
      in
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0x1000 ~text:(Array.of_list insns) ~sections:[]
          ~exports:[] ~relocs:[] ~needed:[] ~entry:0x1000
      in
      let buf = Buffer.create 1024 in
      Obs.Trace.to_buffer buf;
      let r =
        Fun.protect
          ~finally:Obs.Trace.disable
          (fun () ->
            Hth.Session.run
              (Hth.Session.setup ~programs:[ img ] ~main:"/p" ()))
      in
      let stat name = Option.value (List.assoc_opt name r.stats) ~default:0 in
      let flow_lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l ->
               Astring.String.is_infix ~affix:{|"ev":"flow"|} l)
        |> List.length
      in
      let per_kind_sum =
        List.fold_left
          (fun acc kind -> acc + stat ("harrier.events." ^ kind))
          0
          [ "exec"; "clone"; "access"; "alloc"; "transfer" ]
      in
      (* one instruction per kernel tick; no blocking syscall retries *)
      stat "vm.instructions" = List.length steps + (5 * writes) + 1
      && stat "vm.instructions" = r.os_report.rep_ticks
      && stat "harrier.events" = r.event_count
      && per_kind_sum = r.event_count
      && flow_lines = r.event_count
      && stat "secpert.warnings" = List.length r.warnings)

(* ------------------------------------------------------------------ *)
(* Tier equivalence: compiled blocks with fused taint summaries vs
   pure interpretation.  A random straight-line body runs in a counted
   loop hot enough to promote at threshold 1, with tainted stdin read
   into the data region before the loop and written out after it.  The
   generator deliberately includes blocks the tier must reject or
   window (pop-to-memory, bodies longer than the compile window), so
   the deopt paths are exercised too.  The whole observable surface —
   trace bytes, events, counters, verdict, tick count — must be
   identical with tiering on and off.                                   *)

let tier_reg =
  Gen.oneofl [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]

(* word-aligned slots inside the 16-byte tainted read buffer plus a
   little untainted tail *)
let tier_slot = Gen.map (fun k -> 0x4000 + (4 * k)) (Gen.int_bound 7)

let tier_body_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let reg = map (fun r -> Isa.Operand.Reg r) tier_reg in
  let imm = map (fun k -> Isa.Operand.Imm k) (int_bound 0xFFFF) in
  let mem = map (fun d -> Isa.Operand.mem d) tier_slot in
  let alu =
    map3
      (fun op d s : Isa.Insn.t ->
        match op with
        | Radd -> Add (d, s)
        | Rsub -> Sub (d, s)
        | Rxor -> Xor (d, s)
        | Rand -> And (d, s)
        | Ror -> Or (d, s)
        | Rmul -> Mul (d, s))
      rop_gen reg (oneof [ reg; imm ])
  in
  frequency
    [ 4, alu;
      2, map2 (fun d s -> Isa.Insn.Mov (W, d, s)) reg (oneof [ reg; imm ]);
      2, map2 (fun r m -> Isa.Insn.Mov (W, r, m)) reg mem;
      2, map2 (fun m r -> Isa.Insn.Mov (W, m, r)) mem reg;
      1, map2 (fun r m -> Isa.Insn.Mov (B, r, m)) reg mem;
      1, map2 (fun m r -> Isa.Insn.Mov (B, m, r)) mem reg;
      1,
      map3
        (fun r b d ->
          Isa.Insn.Lea
            (r, { Isa.Operand.base = Some b; index = None; scale = 1;
                  disp = d }))
        tier_reg tier_reg (int_bound 64);
      1,
      map2
        (fun r k -> Isa.Insn.Cmp (W, Isa.Operand.Reg r, Isa.Operand.Imm k))
        tier_reg (int_bound 255);
      1,
      map2
        (fun a b -> Isa.Insn.Test (Isa.Operand.Reg a, Isa.Operand.Reg b))
        tier_reg tier_reg;
      1, map (fun r -> Isa.Insn.Inc (Isa.Operand.Reg r)) tier_reg;
      1, map (fun r -> Isa.Insn.Dec (Isa.Operand.Reg r)) tier_reg;
      1, map (fun r -> Isa.Insn.Push (Isa.Operand.Reg r)) tier_reg;
      1, map (fun r -> Isa.Insn.Pop (Isa.Operand.Reg r)) tier_reg;
      1, map (fun m -> Isa.Insn.Pop m) mem;
      1, return Isa.Insn.Cpuid;
      1, return Isa.Insn.Nop ]

(* read(stdin, 0x4000, 16); loop iters times over the body; write the
   buffer to stdout; halt.  One address per instruction, so the loop
   head is base + 6. *)
let tier_program iters body : Isa.Insn.t list =
  let loop_head = 0x1000 + 6 in
  [ Isa.Insn.Mov (W, Reg EAX, Imm 3) (* SYS_read *);
    Mov (W, Reg EBX, Imm 0);
    Mov (W, Reg ECX, Imm 0x4000);
    Mov (W, Reg EDX, Imm 16);
    Int 0x80;
    Mov (W, Reg ESI, Imm iters) ]
  @ body
  @ [ Isa.Insn.Dec (Reg ESI);
      Jcc (NZ, Imm loop_head);
      Mov (W, Reg EAX, Imm 4) (* SYS_write *);
      Mov (W, Reg EBX, Imm 1);
      Mov (W, Reg ECX, Imm 0x4000);
      Mov (W, Reg EDX, Imm 16);
      Int 0x80;
      Hlt ]

let tier_session ~tier insns =
  let img =
    Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable ~base:0x1000
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:0x1000
  in
  let monitor_config =
    if tier then
      { Harrier.Monitor.default_config with tier = true; tier_threshold = 1 }
    else { Harrier.Monitor.default_config with tier = false }
  in
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  let outcome =
    Fun.protect
      ~finally:Obs.Trace.disable
      (fun () ->
        Hth.Session.run_outcome ~monitor_config
          (Hth.Session.setup ~programs:[ img ]
             ~user_input:[ "ABCDEFGHIJKLMNOP" ] ~main:"/p" ()))
  in
  Buffer.contents buf, outcome

let prop_tier_equivalence =
  Test.make
    ~name:"tiered execution is observationally identical to interpretation"
    ~count:40
    (make
       ~print:(fun (iters, body) ->
         Printf.sprintf "iters=%d body=[%s]" iters
           (String.concat "; " (List.map Isa.Insn.to_string body)))
       Gen.(pair (int_range 1 8) (list_size (int_bound 24) tier_body_gen)))
    (fun (iters, body) ->
      let insns = tier_program iters body in
      let trace_on, on = tier_session ~tier:true insns in
      let trace_off, off = tier_session ~tier:false insns in
      trace_on = trace_off
      &&
      match on, off with
      | Ok a, Ok b ->
        (* with threshold 1 the loop head is promoted on first entry,
           so the tiered run really did compile or reject something *)
        a.Hth.Session.tier.tc_compiled + a.Hth.Session.tier.tc_deopt > 0
        && b.Hth.Session.tier.tc_compiled = 0
        && a.stats = b.stats
        && Hth.Report.equal_verdict (Hth.Report.verdict a)
             (Hth.Report.verdict b)
        && a.event_count = b.event_count
        && a.os_report.rep_ticks = b.os_report.rep_ticks
        && List.length a.events = List.length b.events
        && List.for_all2
             (fun x y ->
               Fmt.to_to_string Harrier.Events.pp x
               = Fmt.to_to_string Harrier.Events.pp y)
             a.events b.events
      | Error a, Error b -> Hth.Error.to_string a = Hth.Error.to_string b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Flow-line round trip for random events                               *)

(* Names over the whole byte range, biased toward the tag-set
   separators and the escape characters of both encodings. *)
let name_gen =
  Gen.string_size ~gen:
    (Gen.frequency
       [ 3, Gen.char;
         2, Gen.oneofl [ '%'; ','; ';'; '<'; '-'; ':'; '\\'; '"'; '\n' ] ])
    (Gen.int_bound 8)

let wild_source_gen =
  let open Gen in
  oneof
    [ return Taint.Source.User_input;
      return Taint.Source.Hardware;
      map (fun n -> Taint.Source.File n) name_gen;
      map (fun n -> Taint.Source.Socket n) name_gen;
      map (fun n -> Taint.Source.Binary n) name_gen ]

let wild_tagset_gen =
  Gen.map (Taint.Tagset.of_list sp)
    (Gen.list_size (Gen.int_bound 3) wild_source_gen)

let annotated_gen =
  Gen.list_size (Gen.int_bound 3) (Gen.pair wild_source_gen wild_tagset_gen)

let resource_gen =
  Gen.map3
    (fun r_kind r_name r_origin : Harrier.Events.resource ->
      { r_kind; r_name; r_origin })
    (Gen.oneofl
       [ Harrier.Events.R_file; Harrier.Events.R_socket;
         Harrier.Events.R_stdio ])
    name_gen wild_tagset_gen

(* A flow line's step is its index in the trace, so the event at index
   [step] carries that step. *)
let meta_gen step =
  Gen.map
    (fun (pid, time, freq, addr) : Harrier.Events.meta ->
      { pid; time; freq; addr; step })
    Gen.(quad small_nat small_nat small_nat small_nat)

let event_gen step =
  let open Gen in
  let meta = meta_gen step in
  oneof
    [ map3
        (fun path argv meta -> Harrier.Events.Exec { path; argv; meta })
        resource_gen
        (list_size (int_bound 3) name_gen)
        meta;
      map3
        (fun (total, recent) window meta ->
          Harrier.Events.Clone { total; recent; window; meta })
        (pair small_nat small_nat) small_nat meta;
      map3
        (fun call res meta -> Harrier.Events.Access { call; res; meta })
        (oneofl [ "SYS_open"; "SYS_connect"; "SYS_bind" ])
        resource_gen meta;
      map3
        (fun requested total meta ->
          Harrier.Events.Alloc { requested; total; meta })
        small_nat small_nat meta;
      map3
        (fun (data, head, sources, guard) (target, via_server) (len, meta) ->
          Harrier.Events.Transfer
            { call = "SYS_write"; data; head; sources; guard; target;
              via_server; len; meta })
        (quad wild_tagset_gen
           (string_size ~gen:char (int_bound 8))
           annotated_gen annotated_gen)
        (pair resource_gen (option resource_gen))
        (pair small_nat meta) ]

let events =
  make
    ~print:(fun es ->
      String.concat "\n"
        (List.map (fun e -> Obs.render (Harrier.Events.to_fields e)) es))
    Gen.(int_bound 5 >>= fun n -> flatten_l (List.init n event_gen))

(* event -> Obs.Trace buffer sink -> Reader -> of_fields gives back the
   same event; decoding into the generator's space makes equal tag
   sets physically equal, so structural equality is exact. *)
let prop_trace_roundtrip =
  Test.make ~name:"trace serialize/parse round trip" ~count:300 events
    (fun events ->
      let buf = Buffer.create 1024 in
      Obs.Trace.to_buffer buf;
      Fun.protect ~finally:Obs.Trace.disable (fun () ->
          List.iter
            (fun e -> Obs.Trace.emit "flow" (Harrier.Events.to_fields e))
            events);
      match Forensics.Reader.of_string (Buffer.contents buf) with
      | Error _ -> false
      | Ok trace ->
        List.map
          (fun (e : Forensics.Reader.entry) ->
            Harrier.Events.of_fields sp e.fields)
          (Forensics.Reader.entries trace)
        = List.map Result.ok events)

(* Decoder robustness: byte-mutated golden flow lines parse and decode
   to [Ok] or [Error], never an escaped exception. *)
let golden_flow_lines =
  lazy
    (Sys.readdir "golden" |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
     |> List.sort String.compare
     |> List.concat_map (fun f ->
            In_channel.with_open_bin (Filename.concat "golden" f)
              In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l ->
                   Astring.String.is_infix ~affix:{|"ev":"flow"|} l))
     |> Array.of_list)

let mutate line edits =
  List.fold_left
    (fun s (pos, op, c) ->
      let n = String.length s in
      let i = if n = 0 then 0 else pos mod n in
      match op with
      | 0 -> String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ when n = 0 -> s
      | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
    line edits

let mutation =
  make
    ~print:(fun (k, edits) ->
      let lines = Lazy.force golden_flow_lines in
      mutate lines.(k mod Array.length lines) edits)
    Gen.(
      pair nat
        (list_size (int_range 1 4)
           (triple nat (int_bound 2) char)))

let prop_flow_decoder_total =
  Test.make ~name:"mutated flow lines decode or fail, never raise"
    ~count:500 mutation (fun (k, edits) ->
      let lines = Lazy.force golden_flow_lines in
      let line = mutate lines.(k mod Array.length lines) edits in
      (match Forensics.Jsonl.parse_line line with
       | Ok fields -> ignore (Harrier.Events.of_fields sp fields)
       | Error _ -> ());
      (match Forensics.Reader.of_string line with
       | Ok trace -> ignore (Forensics.Reader.events trace)
       | Error _ -> ());
      true)

let props =
  [ prop_union_commutes; prop_union_assoc; prop_union_idempotent;
    prop_union_monotone; prop_of_list_set_semantics;
    prop_interned_union_model; prop_interned_add_mem_model;
    prop_interned_equal_is_extensional; prop_interned_filter_model;
    prop_shadow_matches_byte_map; prop_shadow_clone_independent;
    prop_origin_socket_dominates; prop_origin_empty_unknown;
    prop_origin_classify_all_consistent; prop_value_compare_refl;
    prop_value_compare_antisym; prop_sexp_roundtrip; prop_word_roundtrip;
    prop_string_roundtrip; prop_machine_matches_reference;
    prop_fs_roundtrip; prop_shadow_range_union; prop_engine_refraction;
    prop_secure_no_data; prop_trace_roundtrip; prop_flow_decoder_total;
    prop_dataflow_matches_reference; prop_obs_counters_ground_truth;
    prop_tier_equivalence ]

(* ------------------------------------------------------------------ *)
(* Reproducible randomness.  QCHECK_SEED=<int> pins the generator seed;
   without it a fresh seed is drawn, and any failing case prints the
   seed so the exact run can be replayed.                               *)

(* Pure so it is unit-testable: the environment value wins when it
   parses as an integer, otherwise fall back to the fresh draw. *)
let resolve_seed ~env ~fresh =
  match env with
  | None -> fresh
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> fresh)

let seed =
  resolve_seed
    ~env:(Sys.getenv_opt "QCHECK_SEED")
    ~fresh:(Random.self_init (); Random.int 1_000_000_000)

let to_alcotest_seeded test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| seed |])
      test
  in
  let run () =
    try run ()
    with e ->
      Printf.eprintf
        "\n[qcheck] reproduce this failure with: QCHECK_SEED=%d dune \
         runtest --force\n\
         %!"
        seed;
      raise e
  in
  (name, speed, run)

let seed_resolution_case =
  Alcotest.test_case "QCHECK_SEED resolution" `Quick (fun () ->
      let check msg want ~env =
        Alcotest.(check int) msg want (resolve_seed ~env ~fresh:7)
      in
      check "env wins" 42 ~env:(Some "42");
      check "whitespace tolerated" 42 ~env:(Some " 42\n");
      check "negative accepted" (-3) ~env:(Some "-3");
      check "garbage falls back to fresh" 7 ~env:(Some "not-a-seed");
      check "absent falls back to fresh" 7 ~env:None)

let suite = seed_resolution_case :: List.map to_alcotest_seeded props
