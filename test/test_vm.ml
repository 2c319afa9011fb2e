(* Unit tests for the ISA definitions and the virtual CPU. *)

open Vm

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Build a machine directly from an instruction list mapped at [base]. *)
let machine_of ?(base = 0x1000) ?hooks insns =
  let img =
    Binary.Image.make ~path:"/test/prog" ~kind:Binary.Image.Executable ~base
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:base
  in
  let m = Machine.create ?hooks () in
  Machine.map_image m img;
  Machine.set_eip m base;
  Machine.set_reg m ESP 0xF000;
  m

(* Step until the machine stops or [fuel] runs out. *)
let run ?(fuel = 10_000) m =
  let rec go fuel =
    if fuel = 0 then Alcotest.fail "machine did not stop"
    else
      match Machine.step m with
      | Machine.Continue -> go (fuel - 1)
      | Machine.Syscall _ -> go (fuel - 1)  (* treated as nop in tests *)
      | Machine.Stopped s -> s
  in
  go fuel

let open_insn = Isa.Insn.Hlt

let test_reg_indices () =
  List.iter
    (fun r ->
      check "index round-trip" true
        (Isa.Reg.equal r (Isa.Reg.of_index (Isa.Reg.index r))))
    Isa.Reg.all;
  check_int "eight registers" 8 (List.length Isa.Reg.all);
  check_str "name" "eax" (Isa.Reg.name EAX)

let test_insn_pp () =
  (* AT&T operand order: source first *)
  check_str "mov pp" "movl $0x4,%ebx"
    (Isa.Insn.to_string (Mov (W, Reg EBX, Imm 4)));
  check_str "cpuid pp" "cpuid" (Isa.Insn.to_string Cpuid);
  check "hlt is control flow" true (Isa.Insn.writes_control_flow Isa.Insn.Hlt);
  check "mov is not" false
    (Isa.Insn.writes_control_flow (Mov (W, Reg EAX, Imm 0)))

let test_mov_and_memory () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xDEADBEEF);
        Mov (W, Isa.Operand.abs 0x2000, Reg EAX);
        Mov (W, Reg EBX, Isa.Operand.abs 0x2000);
        open_insn ]
  in
  ignore (run m);
  check_int "round-tripped" 0xDEADBEEF (Machine.get_reg m EBX);
  check_int "little-endian low byte" 0xEF (Machine.read_byte m 0x2000);
  check_int "little-endian high byte" 0xDE (Machine.read_byte m 0x2003)

let test_movb_zero_extends () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xFFFF);
        Mov (B, Reg EAX, Imm 0x41);
        open_insn ]
  in
  ignore (run m);
  check_int "byte mov zero-extends" 0x41 (Machine.get_reg m EAX)

let test_alu () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 10); Add (Reg EAX, Imm 5);
        Mov (W, Reg EBX, Imm 3); Sub (Reg EAX, Reg EBX);
        Mul (Reg EAX, Imm 2); Div (Reg EAX, Imm 4);
        Xor (Reg ECX, Reg ECX); Or (Reg ECX, Imm 0xF0);
        And (Reg ECX, Imm 0x3C); Shl (Reg ECX, Imm 2);
        Shr (Reg ECX, Imm 1); Inc (Reg EDX); Dec (Reg EDX);
        open_insn ]
  in
  ignore (run m);
  check_int "arith chain" 6 (Machine.get_reg m EAX);
  check_int "logic chain" 0x60 (Machine.get_reg m ECX);
  check_int "inc/dec cancel" 0 (Machine.get_reg m EDX)

let test_wraparound () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xFFFFFFFF); Add (Reg EAX, Imm 2);
        open_insn ]
  in
  ignore (run m);
  check_int "32-bit wrap" 1 (Machine.get_reg m EAX)

let test_div_by_zero_faults () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Imm 1); Div (Reg EAX, Imm 0) ] in
  match run m with
  | Machine.Faulted Machine.Div_by_zero -> ()
  | s -> Alcotest.failf "expected div fault, got %a" Machine.pp_status s

(* run a conditional-jump program: sets eax=1 if cond taken else 2 *)
let cond_result cmp_a cmp_b cond =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Cmp (W, Imm cmp_a, Imm cmp_b);  (* 0 *)
        Jcc (cond, Imm (base + 4));     (* 1 *)
        Mov (W, Reg EAX, Imm 2);        (* 2 *)
        Hlt;                            (* 3 *)
        Mov (W, Reg EAX, Imm 1);        (* 4 *)
        Hlt ]
  in
  ignore (run m);
  Machine.get_reg m EAX

let test_conditions () =
  let open Isa.Insn in
  check_int "z taken" 1 (cond_result 5 5 Z);
  check_int "z not taken" 2 (cond_result 5 6 Z);
  check_int "nz" 1 (cond_result 5 6 NZ);
  check_int "l signed" 1 (cond_result (-1) 0 L);
  check_int "l unsigned trap avoided" 1 (cond_result 0xFFFFFFFF 0 L);
  check_int "ge" 1 (cond_result 3 3 GE);
  check_int "le" 1 (cond_result 2 3 LE);
  check_int "g" 1 (cond_result 4 3 G);
  check_int "g not on equal" 2 (cond_result 3 3 G);
  check_int "s after negative cmp" 1 (cond_result 1 2 S);
  check_int "ns" 1 (cond_result 2 1 NS)

let test_stack_call_ret () =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Push (Imm 99);                 (* 0 *)
        Call (Imm (base + 4));         (* 1 *)
        Pop (Reg EBX);                 (* 2: pops 99 *)
        Hlt;                           (* 3 *)
        Mov (W, Reg EAX, Imm 7);       (* 4: the routine *)
        Ret ]
  in
  ignore (run m);
  check_int "routine ran" 7 (Machine.get_reg m EAX);
  check_int "stack balanced" 99 (Machine.get_reg m EBX);
  check_int "esp restored" 0xF000 (Machine.get_reg m ESP)

let test_indirect_jump () =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Mov (W, Reg ECX, Imm (base + 3));  (* 0 *)
        Jmp (Reg ECX);                     (* 1 *)
        Hlt;                               (* 2: skipped *)
        Mov (W, Reg EAX, Imm 42);          (* 3 *)
        Hlt ]
  in
  ignore (run m);
  check_int "indirect target" 42 (Machine.get_reg m EAX)

let test_lea_and_indexed () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EBX, Imm 0x2000); Mov (W, Reg ECX, Imm 3);
        Lea (EAX, { base = Some EBX; index = Some ECX; scale = 4; disp = 8 });
        open_insn ]
  in
  ignore (run m);
  check_int "lea arithmetic" (0x2000 + 12 + 8) (Machine.get_reg m EAX)

let test_cpuid () =
  let m = machine_of [ Isa.Insn.Cpuid; open_insn ] in
  ignore (run m);
  check_int "GenuineIntel eax" 0x756E_6547 (Machine.get_reg m EAX)

let test_syscall_outcome () =
  let m = machine_of [ Isa.Insn.Int 0x80; open_insn ] in
  (match Machine.step m with
   | Machine.Syscall 0x80 -> ()
   | _ -> Alcotest.fail "int 0x80 must surface as Syscall");
  check_int "eip advanced past int" 0x1001 (Machine.eip m)

let test_bad_fetch () =
  let m = machine_of [ Isa.Insn.Jmp (Isa.Operand.Imm 0x9999) ] in
  match run m with
  | Machine.Faulted (Machine.Bad_fetch 0x9999) -> ()
  | s -> Alcotest.failf "expected bad fetch, got %a" Machine.pp_status s

let test_bad_access () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Isa.Operand.abs 0x200000) ] in
  match run m with
  | Machine.Faulted (Machine.Bad_access _) -> ()
  | s -> Alcotest.failf "expected bad access, got %a" Machine.pp_status s

let test_cstring_and_bytes () =
  let m = machine_of [ open_insn ] in
  Machine.write_string m 0x3000 "hello\000world";
  check_str "cstring stops at NUL" "hello" (Machine.read_cstring m 0x3000);
  check_str "read_bytes spans NUL" "hello\000w"
    (Machine.read_bytes m 0x3000 7)

let test_clone_isolation () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Imm 5); open_insn ] in
  let c = Machine.clone m in
  ignore (run m);
  check_int "parent ran" 5 (Machine.get_reg m EAX);
  check_int "clone untouched" 0 (Machine.get_reg c EAX);
  Machine.write_byte c 0x2000 7;
  check_int "memory is copied" 0 (Machine.read_byte m 0x2000)

let test_bb_hook () =
  let open Isa.Insn in
  let base = 0x1000 in
  let bbs = ref [] in
  let hooks = Machine.no_hooks () in
  hooks.on_bb <- (fun _ addr -> bbs := addr :: !bbs);
  let m =
    machine_of ~base ~hooks
      [ Mov (W, Reg EAX, Imm 1);       (* 0: BB leader *)
        Jmp (Imm (base + 2));          (* 1 *)
        Mov (W, Reg EAX, Imm 2);       (* 2: BB leader (jump target) *)
        Mov (W, Reg EBX, Imm 3);       (* 3: same BB *)
        Hlt ]
  in
  ignore (run m);
  Alcotest.(check (list int)) "bb leaders" [ base; base + 2 ]
    (List.rev !bbs)

let test_pre_insn_hook_order () =
  let open Isa.Insn in
  let seen = ref [] in
  let hooks = Machine.no_hooks () in
  hooks.pre_insn <- (fun m addr _ ->
      (* pre-hook observes the state *before* the instruction *)
      seen := (addr, Machine.get_reg m EAX) :: !seen);
  let m =
    machine_of ~hooks [ Mov (W, Reg EAX, Imm 9); Mov (W, Reg EBX, Reg EAX);
                        Hlt ]
  in
  ignore (run m);
  (match List.rev !seen with
   | (a0, 0) :: (a1, 9) :: _ ->
     check_int "first addr" 0x1000 a0;
     check_int "second addr" 0x1001 a1
   | _ -> Alcotest.fail "pre-insn hook order wrong");
  (* Under [step_block], an accepted block stands in for [pre_insn] on
     its body and on the [Jcc] to an immediate target fused after it;
     the hook sees only what is interpreted.  The body at 0x1000 ends in
     a not-taken [jz]; the one-instruction body at 0x1003 ends in
     [hlt], which stays interpreted. *)
  let prog =
    [ Mov (W, Reg EAX, Imm 9);
      Add (Reg EBX, Reg EAX);
      Jcc (Z, Imm 0x1000);
      Nop;
      Hlt ]
  in
  let addrs ~accept ~first_fuel =
    let seen = ref [] in
    let hooks = Machine.no_hooks () in
    hooks.pre_insn <- (fun _ addr _ -> seen := addr :: !seen);
    hooks.on_block <- (fun _ _ _ _ -> accept);
    let m = machine_of ~hooks prog in
    let rec go fuel =
      match Machine.step_block m ~fuel with
      | Machine.Stopped _ -> ()
      | _ -> go 100
    in
    go first_fuel;
    List.rev !seen
  in
  Alcotest.(check (list int)) "refused blocks: every instruction"
    [ 0x1000; 0x1001; 0x1002; 0x1003; 0x1004 ]
    (addrs ~accept:false ~first_fuel:100);
  Alcotest.(check (list int)) "accepted: body and fused branch silent"
    [ 0x1004 ] (addrs ~accept:true ~first_fuel:100);
  Alcotest.(check (list int)) "fuel ends at the body: branch interpreted"
    [ 0x1002; 0x1004 ] (addrs ~accept:true ~first_fuel:2)

let test_segments () =
  let m = machine_of [ open_insn ] in
  (match Machine.segment_at m 0x1000 with
   | Some seg -> check_str "segment image" "/test/prog" seg.seg_image
   | None -> Alcotest.fail "segment missing");
  check "outside segment" true (Machine.segment_at m 0x5000 = None);
  check "fetch in range" true (Machine.fetch m 0x1000 <> None);
  check "fetch out of range" true (Machine.fetch m 0x5000 = None)

let test_mem_to_mem_mov () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Isa.Operand.abs 0x2000, Imm 77);
        Mov (W, Isa.Operand.abs 0x2004, Isa.Operand.abs 0x2000);
        open_insn ]
  in
  ignore (run m);
  check_int "mem-to-mem allowed" 77 (Machine.read_word m 0x2004)

let suite =
  [ Alcotest.test_case "register indices" `Quick test_reg_indices;
    Alcotest.test_case "instruction printing" `Quick test_insn_pp;
    Alcotest.test_case "mov and memory endianness" `Quick
      test_mov_and_memory;
    Alcotest.test_case "movb zero-extends" `Quick test_movb_zero_extends;
    Alcotest.test_case "ALU chain" `Quick test_alu;
    Alcotest.test_case "32-bit wraparound" `Quick test_wraparound;
    Alcotest.test_case "division by zero faults" `Quick
      test_div_by_zero_faults;
    Alcotest.test_case "all condition codes" `Quick test_conditions;
    Alcotest.test_case "stack, call and ret" `Quick test_stack_call_ret;
    Alcotest.test_case "indirect jump" `Quick test_indirect_jump;
    Alcotest.test_case "lea with index and scale" `Quick
      test_lea_and_indexed;
    Alcotest.test_case "cpuid identity" `Quick test_cpuid;
    Alcotest.test_case "int 0x80 surfaces syscalls" `Quick
      test_syscall_outcome;
    Alcotest.test_case "bad fetch faults" `Quick test_bad_fetch;
    Alcotest.test_case "bad access faults" `Quick test_bad_access;
    Alcotest.test_case "cstring and raw bytes" `Quick
      test_cstring_and_bytes;
    Alcotest.test_case "clone isolation" `Quick test_clone_isolation;
    Alcotest.test_case "basic-block hook" `Quick test_bb_hook;
    Alcotest.test_case "pre-instruction hook order" `Quick
      test_pre_insn_hook_order;
    Alcotest.test_case "segments and fetch" `Quick test_segments;
    Alcotest.test_case "memory-to-memory mov" `Quick test_mem_to_mem_mov ]
