(* This runs on every instruction, so the operand helpers are called
   saturated — no per-step closure allocation — and unions rely on the
   interned tag-set fast paths. *)

let size_bytes = function Isa.Insn.B -> 1 | Isa.Insn.W -> 4

let operand_tag shadow m imm_tag size (op : Isa.Operand.t) =
  match op with
  | Imm _ -> imm_tag
  | Reg r -> Shadow.reg shadow r
  | Mem ref ->
    Shadow.range shadow (Vm.Machine.eff_addr m ref) (size_bytes size)

let write_tag shadow m size (op : Isa.Operand.t) tag =
  match op with
  | Imm _ -> ()
  | Reg r -> Shadow.set_reg shadow r tag
  | Mem ref ->
    Shadow.set_range shadow (Vm.Machine.eff_addr m ref) (size_bytes size) tag

let reg_tag shadow = function
  | None -> Taint.Tagset.empty
  | Some reg -> Shadow.reg shadow reg

let step shadow m ~imm_tag (insn : Isa.Insn.t) =
  let sp = Shadow.space shadow in
  match insn with
  | Mov (sz, dst, s) ->
    write_tag shadow m sz dst (operand_tag shadow m imm_tag sz s)
  | Lea (r, ref) ->
    Shadow.set_reg shadow r
      (Taint.Tagset.union sp imm_tag
         (Taint.Tagset.union sp (reg_tag shadow ref.base)
            (reg_tag shadow ref.index)))
  | Add (d, s) | Sub (d, s) | And (d, s) | Or (d, s) | Xor (d, s)
  | Mul (d, s) | Div (d, s) | Shl (d, s) | Shr (d, s) ->
    let tag =
      Taint.Tagset.union sp
        (operand_tag shadow m imm_tag Isa.Insn.W d)
        (operand_tag shadow m imm_tag Isa.Insn.W s)
    in
    write_tag shadow m Isa.Insn.W d tag
  | Inc d | Dec d ->
    write_tag shadow m Isa.Insn.W d
      (Taint.Tagset.union sp (operand_tag shadow m imm_tag Isa.Insn.W d)
         imm_tag)
  | Cmp _ | Test _ -> ()
  | Push a ->
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range shadow sp 4 (operand_tag shadow m imm_tag Isa.Insn.W a)
  | Pop dst ->
    let sp = Vm.Machine.get_reg m ESP in
    write_tag shadow m Isa.Insn.W dst (Shadow.range shadow sp 4)
  | Call _ ->
    (* the CPU pushes an untainted return address *)
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range shadow sp 4 Taint.Tagset.empty
  | Cpuid ->
    let hw = Taint.Tagset.singleton sp Taint.Source.Hardware in
    List.iter
      (fun r -> Shadow.set_reg shadow r hw)
      [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]
  | Jmp _ | Jcc _ | Ret | Int _ | Nop | Hlt -> ()
