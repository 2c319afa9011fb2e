(* Unit and integration tests for Harrier: shadow state, data-flow
   propagation, BB frequency attribution, resource tracking, routine
   short-circuiting, and the assembled monitor. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sp = Taint.Space.create ()
let tag_of l = Taint.Tagset.of_list sp l
let user = Taint.Source.User_input
let file_a = Taint.Source.File "/a"
let bin_x = Taint.Source.Binary "/bin/x"

let tagset =
  Alcotest.testable Taint.Tagset.pp Taint.Tagset.equal

(* ------------------------------------------------------------------ *)
(* Shadow                                                              *)

let test_shadow_regs () =
  let s = Harrier.Shadow.create ~space:sp () in
  Alcotest.check tagset "initially empty" Taint.Tagset.empty
    (Harrier.Shadow.reg s EAX);
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  Alcotest.check tagset "set/get" (tag_of [ user ])
    (Harrier.Shadow.reg s EAX);
  Alcotest.check tagset "others untouched" Taint.Tagset.empty
    (Harrier.Shadow.reg s EBX)

let test_shadow_memory () =
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 100 (tag_of [ user ]);
  Harrier.Shadow.set_byte s 101 (tag_of [ file_a ]);
  Alcotest.check tagset "range unions" (tag_of [ user; file_a ])
    (Harrier.Shadow.range s 100 2);
  Harrier.Shadow.set_range s 100 2 Taint.Tagset.empty;
  check_int "empty tags are not stored" 0 (Harrier.Shadow.tagged_bytes s)

let test_shadow_clone () =
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 5 (tag_of [ user ]);
  let c = Harrier.Shadow.clone s in
  Harrier.Shadow.set_byte c 5 (tag_of [ bin_x ]);
  Alcotest.check tagset "original unchanged" (tag_of [ user ])
    (Harrier.Shadow.byte s 5)

(* A guest's length reaches [range] unchecked (the pre-syscall write
   hook reads the buffer before the kernel validates it).  The read is
   clamped to the address space, so it visits at most its 256 pages:
   a thousand reads of 4 GiB take well under a second of CPU, where
   walking every 4 KiB page of the length would take ~45 ms each. *)
let test_shadow_guest_lengths () =
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_range s 0x1000 4 (tag_of [ user ]);
  Harrier.Shadow.set_byte s 0xFFFFF (tag_of [ file_a ]);
  Alcotest.check tagset "4 GiB read from 0x1000" (tag_of [ user; file_a ])
    (Harrier.Shadow.range s 0x1000 0xFFFFFFFF);
  Alcotest.check tagset "read from below the space" (tag_of [ user ])
    (Harrier.Shadow.range s (-4) 0x1008);
  Alcotest.check tagset "beyond the space reads empty" Taint.Tagset.empty
    (Harrier.Shadow.range s 0x100000 0xFFFFFFFF);
  let t0 = Sys.time () in
  for _ = 1 to 1000 do
    ignore (Harrier.Shadow.range s 0x1000 0xFFFFFFFF)
  done;
  check "1000 reads of 4 GiB in under 1 s of CPU" true
    (Sys.time () -. t0 < 1.0);
  (* a store past the end keeps its in-space bytes, and the rest of
     its tag widens every read rather than vanishing *)
  check "not degraded yet" false (Harrier.Shadow.degraded s);
  Harrier.Shadow.set_range s 0xFFFFE 4 (tag_of [ bin_x ]);
  Alcotest.check tagset "in-space part stored" (tag_of [ bin_x ])
    (Harrier.Shadow.byte s 0xFFFFE);
  check "the rest is refused" true (Harrier.Shadow.degraded s);
  Alcotest.check tagset "and widens other reads" (tag_of [ user; bin_x ])
    (Harrier.Shadow.range s 0x1000 4)

(* ------------------------------------------------------------------ *)
(* Dataflow                                                            *)

let machine_with insns =
  let img =
    Binary.Image.make ~path:"/t" ~kind:Binary.Image.Executable ~base:0x100
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:0x100
  in
  let m = Vm.Machine.create () in
  Vm.Machine.map_image m img;
  Vm.Machine.set_eip m 0x100;
  Vm.Machine.set_reg m ESP 0xF000;
  m

let imm_tag = tag_of [ bin_x ]

let step_df s m insn = Harrier.Dataflow.step s m ~imm_tag insn

let test_df_mov_reg () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EBX (tag_of [ user ]);
  step_df s m (Mov (W, Reg EAX, Reg EBX));
  Alcotest.check tagset "reg copy replaces" (tag_of [ user ])
    (Harrier.Shadow.reg s EAX)

let test_df_mov_imm () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  step_df s m (Mov (W, Reg EAX, Imm 4));
  Alcotest.check tagset "immediate brings BINARY and clears old" imm_tag
    (Harrier.Shadow.reg s EAX)

let test_df_mov_memory () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 0x2001 (tag_of [ user ]);
  Harrier.Shadow.set_byte s 0x2003 (tag_of [ file_a ]);
  step_df s m (Mov (W, Reg EAX, Isa.Operand.abs 0x2000));
  Alcotest.check tagset "word load unions 4 bytes"
    (tag_of [ user; file_a ])
    (Harrier.Shadow.reg s EAX);
  (* store spreads the tag over all four destination bytes *)
  step_df s m (Mov (W, Isa.Operand.abs 0x3000, Reg EAX));
  Alcotest.check tagset "store tags each byte" (tag_of [ user; file_a ])
    (Harrier.Shadow.byte s 0x3003)

let test_df_mov_byte () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 0x2000 (tag_of [ user ]);
  step_df s m (Mov (B, Isa.Operand.abs 0x3000, Isa.Operand.abs 0x2000));
  Alcotest.check tagset "byte copy" (tag_of [ user ])
    (Harrier.Shadow.byte s 0x3000);
  Alcotest.check tagset "only one byte" Taint.Tagset.empty
    (Harrier.Shadow.byte s 0x3001)

let test_df_alu_union () =
  (* the paper's example: add %ebx,%eax unions both sets *)
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  Harrier.Shadow.set_reg s EBX (tag_of [ file_a ]);
  step_df s m (Add (Reg EAX, Reg EBX));
  Alcotest.check tagset "union" (tag_of [ user; file_a ])
    (Harrier.Shadow.reg s EAX);
  Alcotest.check tagset "source unchanged" (tag_of [ file_a ])
    (Harrier.Shadow.reg s EBX)

let test_df_cpuid () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  step_df s m Isa.Insn.Cpuid;
  List.iter
    (fun r ->
      Alcotest.check tagset "hardware tag"
        (tag_of [ Taint.Source.Hardware ])
        (Harrier.Shadow.reg s r))
    [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]

let test_df_push_pop () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  (* push: the slot below esp gets eax's tag *)
  step_df s m (Push (Reg EAX));
  Alcotest.check tagset "pushed" (tag_of [ user ])
    (Harrier.Shadow.range s (0xF000 - 4) 4);
  (* pop with esp pointing at the slot *)
  Vm.Machine.set_reg m ESP (0xF000 - 4);
  step_df s m (Pop (Reg EBX));
  Alcotest.check tagset "popped" (tag_of [ user ])
    (Harrier.Shadow.reg s EBX)

let test_df_cmp_propagates_nothing () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  step_df s m (Cmp (W, Reg EBX, Reg EAX));
  Alcotest.check tagset "cmp leaves dst alone" Taint.Tagset.empty
    (Harrier.Shadow.reg s EBX)

let test_df_call_clears_ret_slot () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_range s (0xF000 - 4) 4 (tag_of [ user ]);
  step_df s m (Call (Imm 0x200));
  Alcotest.check tagset "return address untainted" Taint.Tagset.empty
    (Harrier.Shadow.range s (0xF000 - 4) 4)

(* ------------------------------------------------------------------ *)
(* Block summaries                                                     *)

(* One summary applied three times, with exactly one input tag changed
   between applications — a register, then a memory range.  Each
   application must leave the shadow and the guard exactly as
   interpreting the block with [Dataflow.step] does: the block memo
   re-evaluates what the change reaches and keeps the rest.  The first
   instruction's write is dead (overwritten by the load), so ESI's tag
   is no input at all; EDI's value is a constant. *)
let test_summary_one_input_changed () =
  let open Isa.Insn in
  let body =
    [ Mov (W, Reg EAX, Reg ESI);
      Mov (W, Reg EAX, Isa.Operand.mem ~base:ESI 0x4000);
      Mov (W, Reg EBX, Reg ECX);
      Add (Reg EBX, Reg EDX);
      Mov (W, Isa.Operand.mem 0x5000, Reg EAX);
      Mov (W, Reg EDI, Imm 7);
      Cmp (W, Reg EBX, Imm 3) ]
  in
  let text = Array.of_list (body @ [ Hlt ]) in
  let flow =
    match Isa.Block.analyze text ~pos:0 ~len:(List.length body) with
    | Some f -> f
    | None -> Alcotest.fail "body not summarizable"
  in
  let sm = Harrier.Summary.make ~space:sp ~imm_tag flow in
  let m = machine_with (body @ [ Hlt ]) in
  Vm.Machine.set_reg m ESI 0x10;
  let s = Harrier.Shadow.create ~space:sp () in
  let r = Harrier.Shadow.create ~space:sp () in
  let both f = f s; f r in
  both (fun sh -> Harrier.Shadow.set_reg sh ECX (tag_of [ user ]));
  both (fun sh -> Harrier.Shadow.set_reg sh EDX (tag_of [ file_a ]));
  both (fun sh -> Harrier.Shadow.set_range sh 0x4010 4 (tag_of [ file_a ]));
  let application label =
    check (label ^ ": applied") true (Harrier.Summary.apply sm s m);
    (* the reference: the hooks' per-instruction path on a copy of the
       machine, the guard as the monitor computes it for Cmp *)
    let mc = Vm.Machine.clone m in
    let guard = ref Taint.Tagset.empty in
    List.iter
      (fun insn ->
        (match insn with
         | Cmp (sz, a, b) ->
           let tag =
             Taint.Tagset.union sp
               (Harrier.Dataflow.operand_tag r mc Taint.Tagset.empty sz a)
               (Harrier.Dataflow.operand_tag r mc Taint.Tagset.empty sz b)
           in
           if not (Taint.Tagset.is_empty tag) then guard := tag
         | _ -> ());
        step_df r mc insn;
        ignore (Vm.Machine.step mc))
      body;
    List.iter
      (fun reg ->
        Alcotest.check tagset
          (label ^ ": " ^ Isa.Reg.name reg)
          (Harrier.Shadow.reg r reg) (Harrier.Shadow.reg s reg))
      Isa.Reg.all;
    List.iter
      (fun a ->
        Alcotest.check tagset
          (Printf.sprintf "%s: byte 0x%x" label a)
          (Harrier.Shadow.byte r a) (Harrier.Shadow.byte s a))
      (List.init 32 (fun i -> 0x4000 + i) @ List.init 8 (fun i -> 0x5000 + i));
    Alcotest.check tagset (label ^ ": guard") !guard
      (Harrier.Summary.guard sm)
  in
  application "first";
  both (fun sh -> Harrier.Shadow.set_reg sh ECX (tag_of [ bin_x ]));
  application "register changed";
  both (fun sh -> Harrier.Shadow.set_range sh 0x4011 2 (tag_of [ user ]));
  application "range changed";
  both (fun sh -> Harrier.Shadow.set_reg sh ESI (tag_of [ user ]));
  application "dead input changed"

(* A summary applies only when every range it touches lies in the
   address space, and otherwise deopts (returns [false]) without
   touching the shadow, so the interpreter faults at the right
   instruction.  Ranges sharing one register part are checked as one
   span: a word load at [esi+0x4000] and a byte store at [esi+0x4010]
   may not run past the end, and a push's word at [esp-4] may not start
   below 0. *)
let test_summary_bounds () =
  let open Isa.Insn in
  let applies body regs =
    let text = Array.of_list (body @ [ Hlt ]) in
    let flow =
      match Isa.Block.analyze text ~pos:0 ~len:(List.length body) with
      | Some f -> f
      | None -> Alcotest.fail "body not summarizable"
    in
    let sm = Harrier.Summary.make ~space:sp ~imm_tag flow in
    let m = machine_with (body @ [ Hlt ]) in
    List.iter (fun (r, v) -> Vm.Machine.set_reg m r v) regs;
    let s = Harrier.Shadow.create ~space:sp () in
    Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
    let ok = Harrier.Summary.apply sm s m in
    if not ok then
      check_int "a deopt leaves the shadow untouched" 0
        (Harrier.Shadow.tagged_bytes s);
    ok
  in
  let span =
    [ Mov (W, Reg EBX, Isa.Operand.mem ~base:ESI 0x4000);
      Mov (B, Isa.Operand.mem ~base:ESI 0x4010, Reg EAX) ]
  in
  let top = Vm.Machine.mem_size - 0x4011 in
  check "span ends at the last byte" true (applies span [ ESI, top ]);
  check "span's store one past the end" false (applies span [ ESI, top + 1 ]);
  let near = Vm.Machine.mem_size - 0x4004 in
  check "load ends at the last byte" true
    (applies [ Mov (W, Reg EBX, Isa.Operand.mem ~base:ESI 0x4000) ]
       [ ESI, near ]);
  check "load straddles the end" false
    (applies [ Mov (W, Reg EBX, Isa.Operand.mem ~base:ESI 0x4000) ]
       [ ESI, near + 2 ]);
  check "push to address 0" true (applies [ Push (Reg EAX) ] [ ESP, 4 ]);
  check "push below 0" false (applies [ Push (Reg EAX) ] [ ESP, 2 ])

(* ------------------------------------------------------------------ *)
(* Frequency                                                           *)

let test_freq_counting () =
  let f = Harrier.Freq.create () in
  Harrier.Freq.on_bb f ~pid:1 ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~pid:1 ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~pid:1 ~is_app:true 0x20;
  check_int "count per leader" 2 (Harrier.Freq.count f ~pid:1 0x10);
  check "attribution follows app" true
    (Harrier.Freq.attributed_bb f ~pid:1 = Some 0x20);
  check_int "event freq of attributed" 1
    (Harrier.Freq.event_frequency f ~pid:1)

let test_freq_library_attribution () =
  (* Fig. 3: shared-object blocks keep the last *app* block current *)
  let f = Harrier.Freq.create () in
  Harrier.Freq.on_bb f ~pid:1 ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~pid:1 ~is_app:false 0x4000;
  Harrier.Freq.on_bb f ~pid:1 ~is_app:false 0x4010;
  check "library code not attributed" true
    (Harrier.Freq.attributed_bb f ~pid:1 = Some 0x10);
  check_int "library blocks not counted" 0
    (Harrier.Freq.count f ~pid:1 0x4000)

let test_freq_inherit_reset () =
  let f = Harrier.Freq.create () in
  Harrier.Freq.on_bb f ~pid:1 ~is_app:true 0x10;
  Harrier.Freq.inherit_from f ~parent:1 ~child:2;
  check_int "child inherits counts" 1 (Harrier.Freq.count f ~pid:2 0x10);
  check "child inherits attribution" true
    (Harrier.Freq.attributed_bb f ~pid:2 = Some 0x10);
  Harrier.Freq.reset f ~pid:1;
  check_int "parent reset" 0 (Harrier.Freq.count f ~pid:1 0x10);
  check_int "child unaffected" 1 (Harrier.Freq.count f ~pid:2 0x10)

(* ------------------------------------------------------------------ *)
(* Resources                                                           *)

let entry name origin : Harrier.Resources.entry =
  { e_kind = Harrier.Events.R_file; e_name = name; e_origin = origin;
    e_server_side = false; e_server = None }

let test_resources_lifecycle () =
  let r = Harrier.Resources.create () in
  Harrier.Resources.set r ~pid:1 ~fd:3 (entry "/f" (tag_of [ bin_x ]));
  check "get" true (Harrier.Resources.get r ~pid:1 ~fd:3 <> None);
  check "other pid isolated" true
    (Harrier.Resources.get r ~pid:2 ~fd:3 = None);
  Harrier.Resources.inherit_from r ~parent:1 ~child:2;
  check "inherited" true (Harrier.Resources.get r ~pid:2 ~fd:3 <> None);
  Harrier.Resources.remove r ~pid:1 ~fd:3;
  check "removed" true (Harrier.Resources.get r ~pid:1 ~fd:3 = None);
  check "child survives removal" true
    (Harrier.Resources.get r ~pid:2 ~fd:3 <> None)

let test_resources_fallback () =
  let r = Harrier.Resources.create () in
  let res =
    Harrier.Resources.resource_of r ~pid:1 ~fd:0
      ~fallback:Osim.Syscall.R_stdin
  in
  check "stdin fallback" true (res.r_name = "STDIN");
  let res =
    Harrier.Resources.resource_of r ~pid:1 ~fd:9
      ~fallback:(Osim.Syscall.R_file "/kernel-view")
  in
  check "kernel file fallback" true (res.r_name = "/kernel-view");
  Alcotest.check tagset "fallback has no origin" Taint.Tagset.empty
    res.r_origin

let test_resources_bind () =
  let r = Harrier.Resources.create () in
  Harrier.Resources.bind_origin r ~pid:1 ~fd:4 (tag_of [ bin_x ])
    "LocalHost:80";
  (match Harrier.Resources.bound r ~pid:1 ~fd:4 with
   | Some (tag, local) ->
     Alcotest.check tagset "bound origin" (tag_of [ bin_x ]) tag;
     check "local name" true (local = "LocalHost:80")
   | None -> Alcotest.fail "bound entry missing")

(* ------------------------------------------------------------------ *)
(* Short-circuit                                                       *)

let test_shortcircuit_frames () =
  let spec : Harrier.Shortcircuit.spec =
    { routine = "resolve";
      capture = (fun _ _ -> tag_of [ user ]);
      apply =
        (fun m shadow captured ->
          let result = Vm.Machine.get_reg m EAX in
          Harrier.Shadow.set_range shadow result 4 captured) }
  in
  let t = Harrier.Shortcircuit.create [ spec ] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  (* simulate: Call at esp=0xF000 *)
  Vm.Machine.set_reg m ESP 0xF000;
  Harrier.Shortcircuit.on_call t ~routine:"resolve" m s ~ret_addr:0x123;
  (* inside the routine: esp after the call pushed the return address *)
  Vm.Machine.set_reg m ESP (0xF000 - 4);
  Vm.Machine.write_word m (0xF000 - 4) 0x123;
  Vm.Machine.set_reg m EAX 0x5000;  (* routine result pointer *)
  Harrier.Shortcircuit.on_ret t m s;
  Alcotest.check tagset "captured tag applied to result"
    (tag_of [ user ])
    (Harrier.Shadow.range s 0x5000 4)

let test_shortcircuit_inner_ret_ignored () =
  let spec : Harrier.Shortcircuit.spec =
    { routine = "r"; capture = (fun _ _ -> tag_of [ user ]);
      apply = (fun _ _ _ -> Alcotest.fail "applied on inner ret") }
  in
  let t = Harrier.Shortcircuit.create [ spec ] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  Vm.Machine.set_reg m ESP 0xF000;
  Harrier.Shortcircuit.on_call t ~routine:"r" m s ~ret_addr:0x123;
  (* a nested call's ret: deeper stack, different return address *)
  Vm.Machine.set_reg m ESP (0xF000 - 12);
  Vm.Machine.write_word m (0xF000 - 12) 0x999;
  Harrier.Shortcircuit.on_ret t m s

let test_shortcircuit_unknown_routine () =
  let t = Harrier.Shortcircuit.create [] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shortcircuit.on_call t ~routine:"anything" m s ~ret_addr:1;
  Harrier.Shortcircuit.on_ret t m s  (* no frames: no-op *)

(* ------------------------------------------------------------------ *)
(* Monitor integration (via small sessions)                            *)

(* (data tag, per-source origins, target resource) of each non-stdio
   write *)
let transfer_events (r : Hth.Session.result) =
  List.filter_map
    (function
      | Harrier.Events.Transfer
          { data; sources; target; _ } when target.r_kind <> R_stdio ->
        Some (data, sources, target)
      | _ -> None)
    r.events

let test_monitor_binary_sections_tagged () =
  (* a program that copies its rodata to a user file: the transfer's
     data tag must be BINARY(program) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "data" "hard";
    Asm.space u "fd" 4;
    Asm.label u "_start";
    Guest.Runtime.save_argv u 1 "__scratch";
    Guest.Runtime.sys_creat u ~path:(Asm.mlbl "__scratch");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "data")
      ~len:(Asm.imm 4);
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Session.run
      (Hth.Session.setup ~programs:[ exe ] ~argv:[ "/bin/m"; "/out" ]
         ~main:"/bin/m" ())
  in
  match transfer_events r with
  | [ (data, _, target) ] ->
    check "data tagged BINARY" true
      (List.mem "/bin/m" (Taint.Tagset.binaries data));
    (* and the file name came from argv: USER_INPUT *)
    check "target named by user" true
      (Taint.Tagset.has_user_input target.r_origin)
  | _ -> Alcotest.fail "expected exactly one transfer"

let test_monitor_read_tags_buffer () =
  (* cat a file to another file: the transfer's source is FILE(src) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "src" "/in";
    Asm.asciz u "dst" "/out";
    Asm.space u "fd" 4;
    Asm.space u "n" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_open u ~path:(Asm.lbl "src") ~flags:0;
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_read u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 32);
    Asm.movl u (Asm.mlbl "n") Asm.eax;
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.mlbl "n");
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Session.run
      (Hth.Session.setup ~programs:[ exe ] ~files:[ "/in", "payload" ]
         ~main:"/bin/m" ())
  in
  match transfer_events r with
  | [ (data, sources, _) ] ->
    check "source is the file" true
      (List.mem "/in" (Taint.Tagset.files data));
    (* per-source name origin resolved from the open *)
    (match sources with
     | [ (Taint.Source.File "/in", origin) ] ->
       check "source name was hardcoded" true
         (List.mem "/bin/m" (Taint.Tagset.binaries origin))
     | _ -> Alcotest.fail "sources list wrong")
  | _ -> Alcotest.fail "expected exactly one transfer"

let test_monitor_event_meta () =
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Asm.asciz u "prog" "/bin/true";
    Asm.label u "_start";
    Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ();
    Guest.Runtime.sys_exit u 1;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Session.run
      (Hth.Session.setup
         ~programs:[ exe; Guest.Common.trivial "/bin/true" ]
         ~main:"/bin/m" ())
  in
  match
    List.find_opt
      (function Harrier.Events.Exec _ -> true | _ -> false)
      r.events
  with
  | Some (Harrier.Events.Exec { meta; _ }) ->
    check "time progressed" true (meta.time > 0);
    check_int "bb executed once" 1 meta.freq;
    check_int "attributed to the entry block" 0x1000 meta.addr;
    check_int "pid" 1 meta.pid
  | _ -> Alcotest.fail "no exec event"

let test_monitor_fork_inherits_taint () =
  (* the parent reads a hard-coded file; the *child* writes the buffer —
     the taint must survive the fork (shadow cloned, resources
     inherited) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "src" "/secret";
    Asm.asciz u "dst" "/leak";
    Asm.space u "fd" 4;
    Asm.space u "n" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_open u ~path:(Asm.lbl "src") ~flags:0;
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_read u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 32);
    Asm.movl u (Asm.mlbl "n") Asm.eax;
    Guest.Runtime.sys_fork u;
    Asm.testl u Asm.eax Asm.eax;
    Asm.jnz u "parent";
    (* child *)
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.mlbl "n");
    Guest.Runtime.sys_exit u 0;
    Asm.label u "parent";
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Session.run
      (Hth.Session.setup ~programs:[ exe ]
         ~files:[ "/secret", "classified-bytes" ] ~main:"/bin/m" ())
  in
  match
    List.find_map
      (function
        | Harrier.Events.Transfer
            { data; sources; target = { r_name = "/leak"; _ }; meta; _ } ->
          Some (data, sources, meta)
        | _ -> None)
      r.events
  with
  | Some (data, sources, meta) ->
    check "child pid performed the write" true (meta.pid = 2);
    check "taint crossed the fork" true
      (List.mem "/secret" (Taint.Tagset.files data));
    (match sources with
     | [ (Taint.Source.File "/secret", origin) ] ->
       check "resource origin inherited" true
         (List.mem "/bin/m" (Taint.Tagset.binaries origin))
     | _ -> Alcotest.fail "sources wrong")
  | None -> Alcotest.fail "child write not observed"

let suite =
  [ Alcotest.test_case "shadow registers" `Quick test_shadow_regs;
    Alcotest.test_case "shadow memory ranges" `Quick test_shadow_memory;
    Alcotest.test_case "shadow clone isolation" `Quick test_shadow_clone;
    Alcotest.test_case "shadow reads of guest lengths are bounded" `Quick
      test_shadow_guest_lengths;
    Alcotest.test_case "dataflow mov reg" `Quick test_df_mov_reg;
    Alcotest.test_case "dataflow immediate is BINARY" `Quick
      test_df_mov_imm;
    Alcotest.test_case "dataflow word load/store" `Quick
      test_df_mov_memory;
    Alcotest.test_case "dataflow byte copy" `Quick test_df_mov_byte;
    Alcotest.test_case "dataflow ALU union" `Quick test_df_alu_union;
    Alcotest.test_case "dataflow cpuid is HARDWARE" `Quick test_df_cpuid;
    Alcotest.test_case "dataflow push/pop" `Quick test_df_push_pop;
    Alcotest.test_case "dataflow cmp propagates nothing" `Quick
      test_df_cmp_propagates_nothing;
    Alcotest.test_case "dataflow call clears return slot" `Quick
      test_df_call_clears_ret_slot;
    Alcotest.test_case "summary memo: one input changed" `Quick
      test_summary_one_input_changed;
    Alcotest.test_case "summary bounds: deopt past either end" `Quick
      test_summary_bounds;
    Alcotest.test_case "frequency counting" `Quick test_freq_counting;
    Alcotest.test_case "frequency library attribution (Fig. 3)" `Quick
      test_freq_library_attribution;
    Alcotest.test_case "frequency inherit and reset" `Quick
      test_freq_inherit_reset;
    Alcotest.test_case "resources lifecycle" `Quick
      test_resources_lifecycle;
    Alcotest.test_case "resources fallback" `Quick test_resources_fallback;
    Alcotest.test_case "resources bind origin" `Quick test_resources_bind;
    Alcotest.test_case "short-circuit frames" `Quick
      test_shortcircuit_frames;
    Alcotest.test_case "short-circuit ignores inner rets" `Quick
      test_shortcircuit_inner_ret_ignored;
    Alcotest.test_case "short-circuit unknown routine" `Quick
      test_shortcircuit_unknown_routine;
    Alcotest.test_case "monitor tags binary sections" `Quick
      test_monitor_binary_sections_tagged;
    Alcotest.test_case "monitor tags read buffers" `Quick
      test_monitor_read_tags_buffer;
    Alcotest.test_case "monitor event metadata" `Quick
      test_monitor_event_meta;
    Alcotest.test_case "monitor fork inherits taint" `Quick
      test_monitor_fork_inherits_taint ]
