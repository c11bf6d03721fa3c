module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Exec = Ndroid_arm.Exec

let mask32 = 0xFFFFFFFF

let pc_read cpu addr =
  match cpu.Cpu.mode with Cpu.Arm -> addr + 8 | Cpu.Thumb -> addr + 4

let reg_value cpu addr r =
  if r = 15 then pc_read cpu addr land mask32 else Cpu.reg cpu r

let mem_access_addr cpu addr ~rn ~offset ~pre =
  let base = reg_value cpu addr rn in
  if not pre then base
  else
    let off =
      match offset with
      | Insn.Off_imm v -> v
      | Insn.Off_reg (up, rm, kind, amount) ->
        let v = Exec.shift_value (reg_value cpu addr rm) kind amount in
        if up then v else -v
    in
    (base + off) land mask32

let width_bytes = function Insn.Word -> 4 | Insn.Byte -> 1 | Insn.Half -> 2

let popcount16 mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go (mask land 0xFFFF) 0

let block_start cpu ~rn ~mode ~regs =
  let base = Cpu.reg cpu rn in
  let count = popcount16 regs in
  match mode with
  | Insn.IA -> base
  | Insn.IB -> base + 4
  | Insn.DA -> base - (4 * count) + 4
  | Insn.DB -> base - (4 * count)

let step engine cpu ~addr insn =
  if Cpu.cond_passed cpu (Insn.cond_of insn) then
    match insn with
    | Insn.Dp { op; rd; rn; op2; _ } -> (
      match op with
      | Insn.TST | Insn.TEQ | Insn.CMP | Insn.CMN ->
        (* flags only; no control-flow taint (paper, Sec. VII) *)
        ()
      | Insn.MOV | Insn.MVN -> (
        match op2 with
        | Insn.Imm _ -> Taint_engine.set_reg engine rd Taint.clear
        | Insn.Reg _ | Insn.Reg_shift_imm _ | Insn.Reg_shift_reg _ ->
          Taint_engine.set_reg engine rd (Taint_engine.op2_taint engine op2))
      | Insn.AND | Insn.EOR | Insn.SUB | Insn.RSB | Insn.ADD | Insn.ADC
      | Insn.SBC | Insn.RSC | Insn.ORR | Insn.BIC -> (
        match op2 with
        | Insn.Imm _ ->
          (* binary-op Rd, Rm, #imm: t(Rd) := t(Rm) — here "Rm" is rn *)
          Taint_engine.set_reg engine rd (Taint_engine.reg engine rn)
        | Insn.Reg _ | Insn.Reg_shift_imm _ | Insn.Reg_shift_reg _ ->
          Taint_engine.set_reg engine rd
            (Taint.union
               (Taint_engine.reg engine rn)
               (Taint_engine.op2_taint engine op2))))
    | Insn.Mul { rd; rm; rs; _ } ->
      Taint_engine.set_reg engine rd
        (Taint.union (Taint_engine.reg engine rm) (Taint_engine.reg engine rs))
    | Insn.Mla { rd; rm; rs; rn; _ } ->
      Taint_engine.set_reg engine rd
        (Taint.union
           (Taint.union (Taint_engine.reg engine rm) (Taint_engine.reg engine rs))
           (Taint_engine.reg engine rn))
    | Insn.Mull { rdlo; rdhi; rm; rs; _ } ->
      let tag =
        Taint.union (Taint_engine.reg engine rm) (Taint_engine.reg engine rs)
      in
      Taint_engine.set_reg engine rdlo tag;
      Taint_engine.set_reg engine rdhi tag
    | Insn.Clz { rd; rm; _ } ->
      Taint_engine.set_reg engine rd (Taint_engine.reg engine rm)
    | Insn.Mem { load; width; rd; rn; offset; pre; _ } ->
      let a = mem_access_addr cpu addr ~rn ~offset ~pre in
      let n = width_bytes width in
      if load then
        (* t(Rd) := t(M[addr]) ∪ t(Rn) *)
        Taint_engine.set_reg engine rd
          (Taint.union (Taint_engine.mem engine a n) (Taint_engine.reg engine rn))
      else
        (* t(M[addr]) := t(Rd) *)
        Taint_engine.set_mem engine a n (Taint_engine.reg engine rd)
    | Insn.Block { load; rn; mode; regs; _ } ->
      (* walk mask bits lowest-register-first; no register list is built *)
      let a = ref (block_start cpu ~rn ~mode ~regs) in
      if load then begin
        let base_taint = Taint_engine.reg engine rn in
        for r = 0 to 15 do
          if regs land (1 lsl r) <> 0 then begin
            Taint_engine.set_reg engine r
              (Taint.union (Taint_engine.mem engine (!a land mask32) 4) base_taint);
            a := !a + 4
          end
        done
      end
      else
        for r = 0 to 15 do
          if regs land (1 lsl r) <> 0 then begin
            Taint_engine.set_mem engine (!a land mask32) 4
              (Taint_engine.reg engine r);
            a := !a + 4
          end
        done
    | Insn.B _ | Insn.Bx _ | Insn.Svc _ -> ()
    | Insn.Vdp { op = _; prec; vd; vn; vm; _ } -> (
      match prec with
      | Insn.F32 ->
        Taint_engine.set_sreg engine vd
          (Taint.union (Taint_engine.sreg engine vn) (Taint_engine.sreg engine vm))
      | Insn.F64 ->
        Taint_engine.set_dreg engine vd
          (Taint.union (Taint_engine.dreg engine vn) (Taint_engine.dreg engine vm)))
    | Insn.Vmem { load; prec; vd; rn; offset; _ } -> (
      let a = (reg_value cpu addr rn + offset) land mask32 in
      let n = match prec with Insn.F32 -> 4 | Insn.F64 -> 8 in
      match (load, prec) with
      | true, Insn.F32 ->
        Taint_engine.set_sreg engine vd
          (Taint.union (Taint_engine.mem engine a n) (Taint_engine.reg engine rn))
      | true, Insn.F64 ->
        Taint_engine.set_dreg engine vd
          (Taint.union (Taint_engine.mem engine a n) (Taint_engine.reg engine rn))
      | false, Insn.F32 -> Taint_engine.set_mem engine a n (Taint_engine.sreg engine vd)
      | false, Insn.F64 -> Taint_engine.set_mem engine a n (Taint_engine.dreg engine vd))
    | Insn.Vmov_core { to_core; rt; sn; _ } ->
      if to_core then Taint_engine.set_reg engine rt (Taint_engine.sreg engine sn)
      else Taint_engine.set_sreg engine sn (Taint_engine.reg engine rt)
    | Insn.Vcvt { to_double; vd; vm; _ } ->
      if to_double then Taint_engine.set_dreg engine vd (Taint_engine.sreg engine vm)
      else Taint_engine.set_sreg engine vd (Taint_engine.dreg engine vm)
    | Insn.Vcvt_int { to_float; prec; vd; vm; _ } ->
      if to_float then (
        let src = Taint_engine.sreg engine vm in
        match prec with
        | Insn.F32 -> Taint_engine.set_sreg engine vd src
        | Insn.F64 -> Taint_engine.set_dreg engine vd src)
      else
        let src =
          match prec with
          | Insn.F32 -> Taint_engine.sreg engine vm
          | Insn.F64 -> Taint_engine.dreg engine vm
        in
        Taint_engine.set_sreg engine vd src

let rules_table =
  [ ("binary-op Rd, Rn, Rm", "Rd = Rn op Rm", "t(Rd) = t(Rn) OR t(Rm)");
    ("binary-op Rd, Rm", "Rd = Rd op Rm", "t(Rd) = t(Rd) OR t(Rm)");
    ("binary-op Rd, Rm, #imm", "Rd = Rm op #imm", "t(Rd) = t(Rm)");
    ("unary Rd, Rm", "Rd = op Rm", "t(Rd) = t(Rm)");
    ("mov Rd, #imm", "Rd = #imm", "t(Rd) = TAINT_CLEAR");
    ("mov Rd, Rm", "Rd = Rm", "t(Rd) = t(Rm)");
    ("LDR* Rd, Rn, #imm", "Rd = M[Cal(Rn,#imm)]", "t(Rd) = t(M[addr]) OR t(Rn)");
    ("LDM(POP) regList, Rn", "{Ri..Rj} = M[start..end]",
     "t(Ri) = t(M[a_i]) OR t(Rn) for each i");
    ("STR* Rd, Rn, #imm", "M[Cal(Rn,#imm)] = Rd", "t(M[addr]) = t(Rd)");
    ("STM(PUSH) regList, Rn", "M[start..end] = {Ri..Rj}", "t(M[a_i]) = t(Ri)") ]
