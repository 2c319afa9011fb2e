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

(* Paged guest memory against a flat reference model.  Random byte,
   word and string accesses (biased to page-straddling offsets
   0xffd-0xfff, the last word of the space and just past it) run on
   a family of machines grown by [clone]; each op must give the same
   value or the same [Bad_access] fault as the model, every machine
   must still match its own model byte for byte at the end (so no
   write after a fork shows through in either direction), and a fresh
   machine must still read zero wherever anyone wrote (the shared zero
   page was never written). *)

type mem_op =
  | M_wb of int * int * int  (* process, address, byte *)
  | M_ww of int * int * int
  | M_rb of int * int
  | M_rw of int * int
  | M_ws of int * int * string
  | M_rs of int * int  (* read_cstring *)
  | M_rbytes of int * int * int
  | M_fork of int

let mem_size = Vm.Machine.mem_size

let mem_addr_gen =
  let open Gen in
  frequency
    [ 4, map2 (fun pg off -> (pg * 0x1000) + 0xffd + off) (int_bound 255)
           (int_bound 6);
      2, map (fun k -> mem_size - 8 + k) (int_bound 12);
      1, map (fun k -> -1 - k) (int_bound 3);
      3, int_bound 0x4000 ]

let mem_op_gen =
  let open Gen in
  let p = int_bound 7 in
  frequency
    [ 3, map3 (fun p a v -> M_wb (p, a, v)) p mem_addr_gen (int_bound 255);
      3, map3 (fun p a v -> M_ww (p, a, v)) p mem_addr_gen
           (int_bound 0x3FFFFFFF);
      2, map2 (fun p a -> M_rb (p, a)) p mem_addr_gen;
      2, map2 (fun p a -> M_rw (p, a)) p mem_addr_gen;
      2, map3 (fun p a s -> M_ws (p, a, s)) p mem_addr_gen
           (string_size ~gen:(oneofl [ '\000'; 'a'; 'b'; '\xff' ])
              (frequency [ 6, int_bound 12; 1, int_range 4090 4200 ]));
      2, map2 (fun p a -> M_rs (p, a)) p mem_addr_gen;
      1, map3 (fun p a n -> M_rbytes (p, a, n)) p mem_addr_gen
           (int_bound 8);
      1, map (fun p -> M_fork p) p ]

let pp_mem_op = function
  | M_wb (p, a, v) -> Printf.sprintf "p%d wb 0x%x %d" p a v
  | M_ww (p, a, v) -> Printf.sprintf "p%d ww 0x%x 0x%x" p a v
  | M_rb (p, a) -> Printf.sprintf "p%d rb 0x%x" p a
  | M_rw (p, a) -> Printf.sprintf "p%d rw 0x%x" p a
  | M_ws (p, a, s) -> Printf.sprintf "p%d ws 0x%x %S" p a s
  | M_rs (p, a) -> Printf.sprintf "p%d rs 0x%x" p a
  | M_rbytes (p, a, n) -> Printf.sprintf "p%d rbytes 0x%x %d" p a n
  | M_fork p -> Printf.sprintf "p%d fork" p

(* The model: a sparse byte map (absent = 0) with the machine's fault
   rule — an access faults at the first of its two ends (its first
   byte, then its last) that lies outside the address space. *)
let model_check a =
  if a < 0 || a >= mem_size then raise (Vm.Machine.Fault_exn (Bad_access a))

let model_span a len =
  model_check a;
  if len > 0 then model_check (a + len - 1)

let model_get h a = Option.value (Hashtbl.find_opt h a) ~default:0

let model_apply h = function
  | M_wb (_, a, v) -> model_span a 1; Hashtbl.replace h a v; ""
  | M_ww (_, a, v) ->
    model_span a 4;
    for i = 0 to 3 do
      Hashtbl.replace h (a + i) ((v lsr (8 * i)) land 0xFF)
    done;
    ""
  | M_rb (_, a) -> model_span a 1; string_of_int (model_get h a)
  | M_rw (_, a) ->
    model_span a 4;
    string_of_int
      (List.fold_left (fun acc i -> acc lor (model_get h (a + i) lsl (8 * i)))
         0 [ 0; 1; 2; 3 ])
  | M_ws (_, a, s) ->
    model_span a (String.length s);
    String.iteri (fun i c -> Hashtbl.replace h (a + i) (Char.code c)) s;
    ""
  | M_rs (_, a) ->
    model_span a 1;
    let b = Buffer.create 16 in
    let rec go i =
      if i < mem_size && model_get h i <> 0 then begin
        Buffer.add_char b (Char.chr (model_get h i));
        go (i + 1)
      end
    in
    go a;
    Buffer.contents b
  | M_rbytes (_, a, n) ->
    model_span a n;
    String.init n (fun i -> Char.chr (model_get h (a + i)))
  | M_fork _ -> ""

let machine_apply m = function
  | M_wb (_, a, v) -> Vm.Machine.write_byte m a v; ""
  | M_ww (_, a, v) -> Vm.Machine.write_word m a v; ""
  | M_rb (_, a) -> string_of_int (Vm.Machine.read_byte m a)
  | M_rw (_, a) -> string_of_int (Vm.Machine.read_word m a)
  | M_ws (_, a, s) -> Vm.Machine.write_string m a s; ""
  | M_rs (_, a) -> Vm.Machine.read_cstring m a
  | M_rbytes (_, a, n) -> Vm.Machine.read_bytes m a n
  | M_fork _ -> ""

let outcome f =
  match f () with
  | v -> Ok v
  | exception Vm.Machine.Fault_exn (Bad_access a) -> Error a

let prop_paged_memory_model =
  Test.make ~name:"paged memory matches a flat model across forks"
    ~count:300
    (make
       ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
       Gen.(list_size (int_range 1 60) mem_op_gen))
    (fun ops ->
      let procs = ref [| Vm.Machine.create (), Hashtbl.create 64 |] in
      let touched = Hashtbl.create 64 in
      let proc_of = function
        | M_wb (p, _, _) | M_ww (p, _, _) | M_rb (p, _) | M_rw (p, _)
        | M_ws (p, _, _) | M_rs (p, _) | M_rbytes (p, _, _) | M_fork p ->
          p mod Array.length !procs
      in
      let ok =
        List.for_all
          (fun op ->
            let m, h = !procs.(proc_of op) in
            (match op with
             | M_wb (_, a, _) -> Hashtbl.replace touched a ()
             | M_ww (_, a, _) ->
               for i = 0 to 3 do Hashtbl.replace touched (a + i) () done
             | M_ws (_, a, s) ->
               String.iteri (fun i _ -> Hashtbl.replace touched (a + i) ()) s
             | _ -> ());
            match op with
            | M_fork _ ->
              procs :=
                Array.append !procs [| Vm.Machine.clone m, Hashtbl.copy h |];
              true
            | _ ->
              outcome (fun () -> machine_apply m op)
              = outcome (fun () -> model_apply h op))
          ops
      in
      let fresh = Vm.Machine.create () in
      ok
      && Hashtbl.fold
           (fun a () acc ->
             acc
             && (a < 0 || a >= mem_size
                || Array.for_all
                     (fun (m, h) -> Vm.Machine.read_byte m a = model_get h a)
                     !procs
                   && Vm.Machine.read_byte fresh a = 0))
           touched true)

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
(* The shadow against a byte-map model over the whole address space:
   random stores, reads and clones, with addresses and lengths that
   straddle pages, run past the 1 MiB space or start below it, and an
   optional page budget small enough to refuse stores.  The model
   keeps the non-empty in-space bytes and the overflow set: a store's
   part beyond the space, and each page piece a full budget refuses,
   widens every later read of that shadow.  Clones copy the model, and
   each later operation goes to one shadow only, so parent and clone
   must stay isolated in both directions.                               *)

type smodel = {
  sm_bytes : (int, Taint.Tagset.t) Hashtbl.t;  (* non-empty, in space *)
  mutable sm_over : Taint.Tagset.t;
}

type sop =
  | Sm_store of int * int * int * Taint.Tagset.t  (* shadow, addr, len *)
  | Sm_byte of int * int * Taint.Tagset.t
  | Sm_read of int * int * int
  | Sm_clone of int

let sm_space = Vm.Machine.mem_size
let sm_page a = a lsr 12

let sm_live_pages m =
  let pages = Hashtbl.create 8 in
  Hashtbl.iter (fun a _ -> Hashtbl.replace pages (sm_page a) ()) m.sm_bytes;
  Hashtbl.length pages

let sm_union = Taint.Tagset.union sp

let sm_store ~budget m addr len tag =
  let nonempty = not (Taint.Tagset.is_empty tag) in
  if len > 0 then begin
    (* [addr + len] may overflow: compare against the space instead *)
    let past = addr >= sm_space || len > sm_space - addr in
    let lo = max addr 0 and hi = if past then sm_space else addr + len in
    if (addr < 0 || past) && nonempty then
      m.sm_over <- sm_union m.sm_over tag;
    (* page by page, as the shadow allocates *)
    let rec piece a =
      if a < hi then begin
        let stop = min hi ((sm_page a + 1) lsl 12) in
        let mapped =
          Hashtbl.fold
            (fun b _ acc -> acc || sm_page b = sm_page a) m.sm_bytes false
        in
        if (not mapped) && nonempty && sm_live_pages m >= budget then
          m.sm_over <- sm_union m.sm_over tag
        else
          for b = a to stop - 1 do
            if nonempty then Hashtbl.replace m.sm_bytes b tag
            else Hashtbl.remove m.sm_bytes b
          done;
        piece stop
      end
    in
    piece lo
  end

let sm_widen m t =
  if Taint.Tagset.is_empty m.sm_over then t else sm_union t m.sm_over

let sm_range m addr len =
  if len <= 0 then Taint.Tagset.empty
  else
    sm_widen m
      (Hashtbl.fold
         (fun a t acc ->
           if a >= addr && a - addr < len then sm_union acc t else acc)
         m.sm_bytes Taint.Tagset.empty)

(* Stores keep their in-space part small (the model is per byte);
   reads may span the whole space, as a guest's write length can. *)
let sm_store_span =
  let open Gen in
  frequency
    [ 4,
      pair
        (map2 ( + )
           (oneofl [ 0; 0xFFE; 0x1000; 0x3FFC; 0x8000 ]) (int_bound 6))
        (oneofl [ 0; 1; 2; 3; 4; 5; 8; 64; 4095; 4096; 4097; -1 ]);
      2,
      pair
        (oneofl
           [ 0xFFFF0; 0xFFFFC; 0xFFFFE; 0xFFFFF; 0x100000; 0x100003;
             0x7FFFFFFF; 0xFFFFFFFF ])
        (oneofl [ 1; 2; 4; 16; 0x100000; 0xFFFFFFFF; max_int ]);
      1, pair (oneofl [ -1; -4; -4096 ]) (oneofl [ 1; 4; 5; 8; 4100 ]) ]

let sm_read_span =
  let open Gen in
  frequency
    [ 3, sm_store_span;
      1,
      pair (oneofl [ 0; 0x1000; 0x3FFE; 0xFFFFF ])
        (oneofl [ 0x100000; 0xFFFFFFFF; max_int ]) ]

let sm_tag_gen =
  Gen.frequency [ 1, Gen.return Taint.Tagset.empty; 3, tagset_gen ]

let sop_gen =
  let open Gen in
  let target = int_bound 3 in
  frequency
    [ 4,
      map3 (fun i (a, len) t -> Sm_store (i, a, len, t)) target
        sm_store_span sm_tag_gen;
      2,
      map3 (fun i (a, _) t -> Sm_byte (i, a, t)) target sm_store_span
        sm_tag_gen;
      3, map2 (fun i (a, len) -> Sm_read (i, a, len)) target sm_read_span;
      1, map (fun i -> Sm_clone i) target ]

let sop_print = function
  | Sm_store (i, a, len, t) ->
    Printf.sprintf "store#%d 0x%x %d %s" i a len (Taint.Tagset.to_string t)
  | Sm_byte (i, a, t) ->
    Printf.sprintf "byte#%d 0x%x %s" i a (Taint.Tagset.to_string t)
  | Sm_read (i, a, len) -> Printf.sprintf "read#%d 0x%x %d" i a len
  | Sm_clone i -> Printf.sprintf "clone#%d" i

let prop_shadow_model_whole_space =
  Test.make
    ~name:"shadow agrees with a byte-map model across the whole space"
    ~count:300
    (make
       ~print:(fun (budget, ops) ->
         Printf.sprintf "budget=%s\n%s"
           (match budget with None -> "none" | Some b -> string_of_int b)
           (String.concat "\n" (List.map sop_print ops)))
       Gen.(
         pair
           (oneofl [ None; Some 0; Some 1; Some 2; Some 3 ])
           (list_size (int_bound 16) sop_gen)))
    (fun (page_budget, ops) ->
      let budget = Option.value page_budget ~default:max_int in
      let shadows =
        ref
          [| ( Harrier.Shadow.create ?page_budget ~space:sp (),
               { sm_bytes = Hashtbl.create 16;
                 sm_over = Taint.Tagset.empty } ) |]
      in
      let pick i = !shadows.(i mod Array.length !shadows) in
      let agrees (s, m) =
        Harrier.Shadow.degraded s = not (Taint.Tagset.is_empty m.sm_over)
        && Harrier.Shadow.live_pages s = sm_live_pages m
        && Harrier.Shadow.tagged_bytes s = Hashtbl.length m.sm_bytes
        && Hashtbl.fold
             (fun a _ ok ->
               ok
               && List.for_all
                    (fun d ->
                      Taint.Tagset.equal
                        (Harrier.Shadow.byte s (a + d))
                        (sm_widen m
                           (Option.value ~default:Taint.Tagset.empty
                              (Hashtbl.find_opt m.sm_bytes (a + d)))))
                    [ -1; 0; 1 ])
             m.sm_bytes true
        && Taint.Tagset.equal
             (Harrier.Shadow.range s 0 sm_space)
             (sm_range m 0 sm_space)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Sm_store (i, a, len, t) ->
              let s, m = pick i in
              Harrier.Shadow.set_range s a len t;
              sm_store ~budget m a len t;
              true
            | Sm_byte (i, a, t) ->
              let s, m = pick i in
              Harrier.Shadow.set_byte s a t;
              sm_store ~budget m a 1 t;
              true
            | Sm_read (i, a, len) ->
              let s, m = pick i in
              Taint.Tagset.equal (Harrier.Shadow.range s a len)
                (sm_range m a len)
            | Sm_clone i ->
              let s, m = pick i in
              shadows :=
                Array.append !shadows
                  [| ( Harrier.Shadow.clone s,
                       { sm_bytes = Hashtbl.copy m.sm_bytes;
                         sm_over = m.sm_over } ) |];
              true
          in
          ok && Array.for_all agrees !shadows)
        ops)

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
(* Compiled bodies vs interpretation, at the machine.  A random
   straight-line body runs once through [step_block] with an
   accept-all [on_block] (so it executes as one compiled chain) and
   once through [step].  The generator covers every operand shape the
   compiler specialises — Mov B/W between registers, immediates and
   memory in both directions, ALU with a memory destination or source,
   Cmp B/W, Test and Push with immediate or memory operands, Pop to
   memory, Lea over every address form — with registers and
   displacements drawn so that words straddle pages (offsets
   0xffd-0xfff) and addresses reach 1 MiB and beyond, so bodies fault
   part-way and the compiled path's rollback runs.  The body ends in a
   random terminator: a [Jcc] on any condition to an immediate target
   (a halt of its own when taken), which [step_block] fuses onto the
   chain; a [Jcc] through a register or a [Jmp], which stay
   interpreted; or none.  After it a jump tree halts at one of eight
   addresses chosen by the flags; its first node is a fused [Jcc] too.
   The compiled run is cut into quanta as the kernel cuts it, of the
   body's length (so the fused branch does not fit and must stay
   interpreted at the quantum edge), one more, or far more.  The final
   registers, eip, status, memory, retired total and the settled VM
   counts must agree, and no step may overrun its quantum.              *)

let blk_base = 0x1000

let blk_addr =
  Gen.oneofl
    [ 0; 4; 0x3000; 0x3040; 0x30ff; 0x3ffd; 0x3ffe; 0x3fff; 0x4000;
      0xFFFFC; 0xFFFFD; 0xFFFFF; 0x100000; 0x100004; -4 ]

let blk_reg_value =
  let open Gen in
  frequency
    [ 3, oneofl [ 0; 1; 2; 4; 0x3000; 0x3ffe; 0xffd; 0xFFFFC; 0x100000 ];
      1, oneofl [ 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; 0xFFFFFFFC ];
      2, int_bound 0xFFFF ]

let blk_esp = Gen.oneofl [ 0x8000; 0x8000; 0x8000; 0x3ffe; 0x2; 0x100000 ]

let blk_imm =
  let open Gen in
  frequency
    [ 2, int_bound 0xFF;
      1, oneofl [ 0x80; 0x100; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; -1 ];
      1, int_bound 0xFFFFFF ]

let blk_mem_ref =
  let open Gen in
  let reg = oneofl Isa.Reg.all in
  let scale = oneofl [ 1; 2; 4 ] in
  oneof
    [ map (fun d -> { Isa.Operand.base = None; index = None; scale = 1;
                      disp = d }) blk_addr;
      map2 (fun b d -> { Isa.Operand.base = Some b; index = None;
                         scale = 1; disp = d })
        reg (oneofl [ 0; 1; 4; 0x3000; 0x3ffd; -4 ]);
      map3 (fun (b, i) s d -> { Isa.Operand.base = b; index = Some i;
                                scale = s; disp = d })
        (pair (opt reg) reg) scale (oneofl [ 0; 2; 0x3000; 0xFFFFC ]) ]

let blk_operand ~dst =
  let open Gen in
  let reg = map (fun r -> Isa.Operand.Reg r) (oneofl Isa.Reg.all) in
  let mem = map (fun r -> Isa.Operand.Mem r) blk_mem_ref in
  if dst then oneof [ reg; mem ]
  else oneof [ reg; mem; map (fun k -> Isa.Operand.Imm k) blk_imm ]

let blk_insn_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let size = oneofl [ Isa.Insn.B; Isa.Insn.W ] in
  let d = blk_operand ~dst:true and s = blk_operand ~dst:false in
  let alu =
    map3
      (fun k d s : Isa.Insn.t ->
        match k with
        | 0 -> Add (d, s) | 1 -> Sub (d, s) | 2 -> And (d, s)
        | 3 -> Or (d, s) | 4 -> Xor (d, s) | 5 -> Mul (d, s)
        | 6 -> Shl (d, s) | _ -> Shr (d, s))
      (int_bound 7) d s
  in
  frequency
    [ 5, map3 (fun sz d s -> Isa.Insn.Mov (sz, d, s)) size d s;
      5, alu;
      1, map (fun d -> Isa.Insn.Inc d) d;
      1, map (fun d -> Isa.Insn.Dec d) d;
      2, map3 (fun sz a b -> Isa.Insn.Cmp (sz, a, b)) size s s;
      2, map2 (fun a b -> Isa.Insn.Test (a, b)) s s;
      2, map (fun a -> Isa.Insn.Push a) s;
      2, map (fun d -> Isa.Insn.Pop d) d;
      2, map2 (fun r m -> Isa.Insn.Lea (r, m)) (oneofl Isa.Reg.all)
           blk_mem_ref;
      1, return Isa.Insn.Cpuid;
      1, return Isa.Insn.Nop ]

(* Seven jump nodes (a Jcc to the right child, a Jmp to the left one)
   testing Z, then S, then L, and eight hlt leaves. *)
let flag_tree n : Isa.Insn.t list =
  let node j = blk_base + n + (2 * j) in
  let leaf j = blk_base + n + 14 + (j - 7) in
  let at j = if j < 7 then node j else leaf j in
  List.concat
    (List.init 7 (fun k ->
         let cond : Isa.Insn.cond =
           if k = 0 then Z else if k < 3 then S else L
         in
         [ Isa.Insn.Jcc (cond, Imm (at ((2 * k) + 2)));
           Jmp (Imm (at ((2 * k) + 1))) ]))
  @ List.init 8 (fun _ -> Isa.Insn.Hlt)

let blk_regions = [ 0x3000, 0x100; 0x3f00, 0x200; 0xFFF00, 0x100 ]

let blk_vm_counters =
  [ "vm.instructions"; "vm.blocks"; "vm.fetch_cache.hits";
    "vm.fetch_cache.misses" ]

(* The instruction after the body: [None] runs straight into the jump
   tree. *)
let blk_term_gen n : Isa.Insn.t option Gen.t =
  let open Gen in
  (* the far halt after the tree: a taken branch stops there *)
  let far = blk_base + n + 1 + 22 in
  let cond = oneofl Isa.Insn.[ Z; NZ; L; GE; LE; G; S; NS ] in
  frequency
    [ 4, map (fun c -> Some (Isa.Insn.Jcc (c, Imm far))) cond;
      1,
      map2 (fun c r -> Some (Isa.Insn.Jcc (c, Reg r))) cond
        (oneofl Isa.Reg.all);
      1, return (Some (Isa.Insn.Jmp (Imm (blk_base + n + 1))));
      1, return None ]

(* Run [body], then [term], from [regs] to a stop, by [step_block] in
   quanta of [quantum] instructions when [compiled] and by [step]
   otherwise; the final state as comparable values, the number of
   instruction slots decoded, and whether a step overran its
   quantum. *)
let blk_run ~compiled ~quantum body term regs =
  let n = List.length body in
  let text =
    match term with
    | None -> body @ flag_tree n
    | Some t -> body @ (t :: flag_tree (n + 1)) @ [ Isa.Insn.Hlt ]
  in
  let img =
    Binary.Image.make ~path:"/b" ~kind:Binary.Image.Executable
      ~base:blk_base ~text:(Array.of_list text)
      ~sections:[] ~exports:[] ~relocs:[] ~needed:[] ~entry:blk_base
  in
  let hooks = Vm.Machine.no_hooks () in
  if compiled then hooks.on_block <- (fun _ _ _ _ -> true);
  let m = Vm.Machine.create ~hooks () in
  Vm.Machine.map_image m img;
  List.iteri
    (fun k (a, len) ->
      Vm.Machine.write_string m a
        (String.init len (fun i -> Char.chr (((i * 37) + k + 1) land 0xFF))))
    blk_regions;
  List.iter2 (Vm.Machine.set_reg m) Isa.Reg.all regs;
  Vm.Machine.set_eip m blk_base;
  let before = Obs.snapshot () in
  let overran = ref false in
  let rec go steps retired =
    let out =
      if compiled then Vm.Machine.step_block m ~fuel:(quantum - steps)
      else Vm.Machine.step m
    in
    let r = Vm.Machine.retired m in
    if steps + r > quantum then overran := true;
    let steps = if steps + r >= quantum then 0 else steps + r in
    match out with
    | Vm.Machine.Stopped _ -> retired + r
    | Continue | Syscall _ -> go steps (retired + r)
  in
  let retired = go 0 0 in
  Vm.Machine.settle m;
  let d = Obs.diff ~before ~after:(Obs.snapshot ()) in
  let count c = Option.value ~default:0 (List.assoc_opt c d) in
  ( ( List.map (Vm.Machine.get_reg m) Isa.Reg.all,
      Vm.Machine.eip m,
      Fmt.to_to_string Vm.Machine.pp_status (Vm.Machine.status m),
      retired,
      Vm.Machine.read_bytes m 0 Vm.Machine.mem_size,
      List.map count blk_vm_counters ),
    count "vm.blocks.decoded",
    !overran )

let prop_block_matches_step =
  Test.make ~name:"compiled bodies match step at the machine" ~count:400
    (make
       ~print:(fun (regs, body, (term, q)) ->
         Printf.sprintf "regs=[%s] body=[%s] term=%s quantum=%s"
           (String.concat "; " (List.map (Printf.sprintf "0x%x") regs))
           (String.concat "; " (List.map Isa.Insn.to_string body))
           (match term with None -> "-" | Some t -> Isa.Insn.to_string t)
           (match q with 0 -> "len" | 1 -> "len+1" | _ -> "1000"))
       Gen.(
         pair
           (map2 (fun rs esp -> rs @ [ esp ])
              (list_repeat 7 blk_reg_value) blk_esp)
           (list_size (int_range 1 20) blk_insn_gen)
         >>= fun (regs, body) ->
         pair (blk_term_gen (List.length body)) (int_bound 2)
         >|= fun tq -> (regs, body, tq)))
    (fun (regs, body, (term, q)) ->
      let n = List.length body in
      let quantum = match q with 0 -> n | 1 -> n + 1 | _ -> 1000 in
      let compiled, decoded_c, overran =
        blk_run ~compiled:true ~quantum body term regs
      in
      let interpreted, decoded_i, _ =
        blk_run ~compiled:false ~quantum body term regs
      in
      (* the chain decodes the whole body on its first run, even when
         that run faults part-way *)
      compiled = interpreted && decoded_c = n && decoded_i = 0
      && not overran)

(* ------------------------------------------------------------------ *)
(* Tier equivalence: compiled blocks with fused taint summaries vs
   pure interpretation.  A random straight-line body runs in a counted
   loop hot enough to promote at threshold 1, with tainted stdin read
   into the data region before the loop and written out after it.  The
   loop's closing [Jcc] runs fused after the body; an optional inner
   [Jcc] on a random condition splits the body, taken or not.  The
   generator deliberately includes blocks the tier must reject or
   window (pop-to-memory, bodies longer than the compile window), and
   register-based memory operands whose addresses can leave the address
   space, so the deopt and fault paths are exercised too.  Each case
   runs with dataflow tracking on and off: with it off there is no
   summary and so no bounds-check deopt, and a compiled body faults
   part-way.  The whole observable surface — trace bytes, events,
   counters, verdict, tick count — must be identical with tiering on
   and off.                                                             *)

let tier_reg =
  Gen.oneofl [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]

(* word-aligned slots inside the 16-byte tainted read buffer plus a
   little untainted tail *)
let tier_slot = Gen.map (fun k -> 0x4000 + (4 * k)) (Gen.int_bound 7)

(* absolute slots, and base / base+index*scale forms over the body's
   registers (ECX starts at the buffer, EDX at its length; the rest
   hold whatever the body computed) *)
let tier_mem =
  let open Gen in
  frequency
    [ 3, map (fun d -> Isa.Operand.mem d) tier_slot;
      2,
      map2 (fun b d -> Isa.Operand.mem ~base:b d) tier_reg
        (oneof [ int_bound 15; tier_slot; oneofl [ 0xFFFFD; 0x100000 ] ]);
      1,
      map3
        (fun (b, i) sc d -> Isa.Operand.mem ~base:b ~index:i ~scale:sc d)
        (pair tier_reg tier_reg) (oneofl [ 1; 2; 4 ]) (int_bound 15) ]

let tier_body_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let reg = map (fun r -> Isa.Operand.Reg r) tier_reg in
  let imm = map (fun k -> Isa.Operand.Imm k) (int_bound 0xFFFF) in
  let mem = tier_mem in
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
  let alu_mem =
    map3
      (fun op (d, s) k : Isa.Insn.t ->
        let d, s = if k then (d, s) else (s, d) in
        match op with
        | Radd -> Add (d, s)
        | Rsub -> Sub (d, s)
        | Rxor -> Xor (d, s)
        | Rand -> And (d, s)
        | Ror -> Or (d, s)
        | Rmul -> Mul (d, s))
      rop_gen (pair mem reg) bool
  in
  let size = oneofl [ Isa.Insn.B; Isa.Insn.W ] in
  frequency
    [ 4, alu;
      2, alu_mem;
      2, map2 (fun d s -> Isa.Insn.Mov (W, d, s)) reg (oneof [ reg; imm ]);
      1, map3 (fun sz d s -> Isa.Insn.Mov (sz, d, s)) size reg (oneof [ reg; imm ]);
      2, map2 (fun r m -> Isa.Insn.Mov (W, r, m)) reg mem;
      2, map2 (fun m r -> Isa.Insn.Mov (W, m, r)) mem reg;
      1, map2 (fun r m -> Isa.Insn.Mov (B, r, m)) reg mem;
      1, map2 (fun m r -> Isa.Insn.Mov (B, m, r)) mem reg;
      1, map2 (fun sz m -> Isa.Insn.Mov (sz, m, Imm 0x5A)) size mem;
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
      1, map3 (fun sz a b -> Isa.Insn.Cmp (sz, a, b)) size mem (oneof [ reg; imm ]);
      1,
      map2
        (fun a b -> Isa.Insn.Test (Isa.Operand.Reg a, Isa.Operand.Reg b))
        tier_reg tier_reg;
      1, map (fun r -> Isa.Insn.Inc (Isa.Operand.Reg r)) tier_reg;
      1, map (fun r -> Isa.Insn.Dec (Isa.Operand.Reg r)) tier_reg;
      1, map (fun r -> Isa.Insn.Push (Isa.Operand.Reg r)) tier_reg;
      1, map (fun m -> Isa.Insn.Push m) mem;
      1, map (fun r -> Isa.Insn.Pop (Isa.Operand.Reg r)) tier_reg;
      1, map (fun m -> Isa.Insn.Pop m) mem;
      1, return Isa.Insn.Cpuid;
      1, return Isa.Insn.Nop ]

(* read(stdin, 0x4000, 16); loop iters times over the body; write the
   buffer to stdout; halt.  One address per instruction, so the loop
   head is base + 6.  With [split = Some (c, k)] the body's first [k]
   instructions end in a [Jcc c] whose taken target skips the rest of
   the body, so both blocks end in a fused branch that goes either
   way. *)
let tier_program ?split iters body : Isa.Insn.t list =
  let loop_head = 0x1000 + 6 in
  let body =
    match split with
    | None -> body
    | Some (c, k) ->
      let k = min k (List.length body) in
      let tail = loop_head + List.length body + 1 in
      List.filteri (fun i _ -> i < k) body
      @ (Isa.Insn.Jcc (c, Imm tail) :: List.filteri (fun i _ -> i >= k) body)
  in
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

let tier_session ~dataflow ~tier insns =
  let img =
    Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable ~base:0x1000
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:0x1000
  in
  let monitor_config =
    { Harrier.Monitor.default_config with
      track_dataflow = dataflow; tier; tier_threshold = 1 }
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

(* Tiering on and off agree on one program under one dataflow
   setting. *)
let tier_agrees ~dataflow insns =
  let trace_on, on = tier_session ~dataflow ~tier:true insns in
  let trace_off, off = tier_session ~dataflow ~tier:false insns in
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
    && a.os_report.rep_final = b.os_report.rep_final
    && List.length a.events = List.length b.events
    && List.for_all2
         (fun x y ->
           Fmt.to_to_string Harrier.Events.pp x
           = Fmt.to_to_string Harrier.Events.pp y)
         a.events b.events
  | Error a, Error b -> Hth.Error.to_string a = Hth.Error.to_string b
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_tier_equivalence =
  Test.make
    ~name:"tiered execution is observationally identical to interpretation"
    ~count:40
    (make
       ~print:(fun (iters, body, split) ->
         Printf.sprintf "iters=%d body=[%s] split=%s" iters
           (String.concat "; " (List.map Isa.Insn.to_string body))
           (match split with
            | None -> "-"
            | Some (c, k) ->
              Printf.sprintf "%s@%d"
                (Isa.Insn.to_string (Jcc (c, Imm 0))) k))
       Gen.(
         triple (int_range 1 8) (list_size (int_bound 24) tier_body_gen)
           (opt
              (pair (oneofl Isa.Insn.[ Z; NZ; L; GE; LE; G; S; NS ])
                 (int_bound 12)))))
    (fun (iters, body, split) ->
      let insns = tier_program ?split iters body in
      tier_agrees ~dataflow:true insns && tier_agrees ~dataflow:false insns)

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
    prop_string_roundtrip; prop_paged_memory_model;
    prop_machine_matches_reference;
    prop_fs_roundtrip; prop_shadow_range_union; prop_engine_refraction;
    prop_secure_no_data; prop_trace_roundtrip; prop_flow_decoder_total;
    prop_dataflow_matches_reference; prop_obs_counters_ground_truth;
    prop_tier_equivalence; prop_block_matches_step;
    prop_shadow_model_whole_space ]

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
