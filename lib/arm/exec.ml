exception Undefined of int * int

type step = {
  addr : int;
  insn : Insn.t;
  size : int;
  mode : Cpu.mode;
  executed : bool;
  branch : (int * int) option;
  is_call : bool;
  is_return : bool;
  svc : int option;
}

let mask32 = 0xFFFFFFFF

(* PC as read by an instruction's operands: two instructions ahead. *)
let pc_read mode addr =
  match mode with Cpu.Arm -> addr + 8 | Cpu.Thumb -> addr + 4

let read_op_reg cpu mode addr r =
  if r = 15 then pc_read mode addr land mask32 else Cpu.reg cpu r

(* Barrel shifter, as two functions that return plain values: the
   shifted value, and the shifter carry-out (read only by the flag-setting
   logical operations). *)
let shift_value value kind amount =
  let value = value land mask32 in
  match (kind, amount) with
  | _, 0 -> value
  | Insn.LSL, n when n < 32 -> (value lsl n) land mask32
  | Insn.LSL, _ -> 0
  | Insn.LSR, n when n < 32 -> value lsr n
  | Insn.LSR, _ -> 0
  | Insn.ASR, n when n < 32 ->
    let v = value lsr n in
    if value land 0x80000000 <> 0 then (v lor (mask32 lsl (32 - n))) land mask32
    else v
  | Insn.ASR, _ -> if value land 0x80000000 <> 0 then mask32 else 0
  | Insn.ROR, n ->
    let n = n land 31 in
    if n = 0 then value
    else ((value lsr n) lor (value lsl (32 - n))) land mask32

let shift_carry value kind amount carry_in =
  let value = value land mask32 in
  match (kind, amount) with
  | _, 0 -> carry_in
  | Insn.LSL, n when n < 32 -> value land (1 lsl (32 - n)) <> 0
  | Insn.LSL, 32 -> value land 1 <> 0
  | Insn.LSL, _ -> false
  | Insn.LSR, n when n < 32 -> value land (1 lsl (n - 1)) <> 0
  | Insn.LSR, 32 -> value land 0x80000000 <> 0
  | Insn.LSR, _ -> false
  | Insn.ASR, n when n < 32 -> value land (1 lsl (n - 1)) <> 0
  | Insn.ASR, _ -> value land 0x80000000 <> 0
  | Insn.ROR, _ -> shift_value value kind amount land 0x80000000 <> 0

(* Evaluate a flexible operand2.  Immediate shift of 0 for LSR/ASR means 32
   in the architecture; the assembler never emits those so we treat literal
   AST values directly. *)
let op2_value cpu mode addr op2 =
  match op2 with
  | Insn.Imm v -> v land mask32
  | Insn.Reg r -> read_op_reg cpu mode addr r
  | Insn.Reg_shift_imm (r, kind, amount) ->
    shift_value (read_op_reg cpu mode addr r) kind amount
  | Insn.Reg_shift_reg (r, kind, rs) ->
    shift_value (read_op_reg cpu mode addr r) kind (Cpu.reg cpu rs land 0xFF)

let op2_carry cpu mode addr op2 =
  match op2 with
  | Insn.Imm _ | Insn.Reg _ -> cpu.Cpu.c
  | Insn.Reg_shift_imm (r, kind, amount) ->
    shift_carry (read_op_reg cpu mode addr r) kind amount cpu.Cpu.c
  | Insn.Reg_shift_reg (r, kind, rs) ->
    shift_carry (read_op_reg cpu mode addr r) kind (Cpu.reg cpu rs land 0xFF)
      cpu.Cpu.c

let signed32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* [a + b + carry_in] (each operand taken as 32 bits); a flag-setting form
   also sets N, Z, C and V.  Returns the 32-bit result. *)
let add_with_carry cpu ~s a b carry_in =
  let a = a land mask32 and b = b land mask32 in
  let unsigned = a + b + carry_in in
  let result = unsigned land mask32 in
  if s then begin
    Cpu.set_nz cpu result;
    cpu.Cpu.c <- unsigned > mask32;
    cpu.Cpu.v <- signed32 a + signed32 b + carry_in <> signed32 result
  end;
  result

(* Per-step execution result.  The machine's trace loop reuses one [run]
   across steps, so a step allocates nothing; -1 means "none". *)
type run = {
  mutable r_executed : bool;
  mutable r_branch_to : int;
  mutable r_is_call : bool;
  mutable r_svc : int;
}

let run_create () =
  { r_executed = false; r_branch_to = -1; r_is_call = false; r_svc = -1 }

let interwork cpu target =
  if target land 1 = 1 then (
    cpu.Cpu.mode <- Cpu.Thumb;
    target land lnot 1)
  else (
    cpu.Cpu.mode <- Cpu.Arm;
    target land lnot 3)

let write_rd cpu (out : run) rd r =
  if rd = 15 then out.r_branch_to <- interwork cpu r else Cpu.set_reg cpu rd r

(* A logical result: N and Z from the result, C from the barrel shifter. *)
let logical_flags cpu mode addr op2 r =
  Cpu.set_nz cpu r;
  cpu.Cpu.c <- op2_carry cpu mode addr op2

let logical cpu mode addr (out : run) ~s ~rd op2 r =
  if s then logical_flags cpu mode addr op2 r;
  write_rd cpu out rd r

(* Most guest instructions are data processing, and the trace loop runs
   each one: it allocates nothing (no result tuples, no local closures). *)
let exec_dp cpu mode addr (out : run) op s rd rn op2 =
  let a = read_op_reg cpu mode addr rn in
  let b = op2_value cpu mode addr op2 in
  let carry = if cpu.Cpu.c then 1 else 0 in
  match op with
  | Insn.AND -> logical cpu mode addr out ~s ~rd op2 (a land b)
  | Insn.EOR -> logical cpu mode addr out ~s ~rd op2 (a lxor b)
  | Insn.ORR -> logical cpu mode addr out ~s ~rd op2 (a lor b)
  | Insn.BIC -> logical cpu mode addr out ~s ~rd op2 (a land lnot b land mask32)
  | Insn.MOV -> logical cpu mode addr out ~s ~rd op2 b
  | Insn.MVN -> logical cpu mode addr out ~s ~rd op2 (lnot b land mask32)
  | Insn.SUB -> write_rd cpu out rd (add_with_carry cpu ~s a (lnot b) 1)
  | Insn.RSB -> write_rd cpu out rd (add_with_carry cpu ~s b (lnot a) 1)
  | Insn.ADD -> write_rd cpu out rd (add_with_carry cpu ~s a b 0)
  | Insn.ADC -> write_rd cpu out rd (add_with_carry cpu ~s a b carry)
  | Insn.SBC -> write_rd cpu out rd (add_with_carry cpu ~s a (lnot b) carry)
  | Insn.RSC -> write_rd cpu out rd (add_with_carry cpu ~s b (lnot a) carry)
  | Insn.TST -> logical_flags cpu mode addr op2 (a land b)
  | Insn.TEQ -> logical_flags cpu mode addr op2 (a lxor b)
  | Insn.CMP -> ignore (add_with_carry cpu ~s:true a (lnot b) 1 : int)
  | Insn.CMN -> ignore (add_with_carry cpu ~s:true a b 0 : int)

let mem_offset_value cpu mode addr = function
  | Insn.Off_imm v -> v
  | Insn.Off_reg (up, rm, kind, amount) ->
    let v = shift_value (read_op_reg cpu mode addr rm) kind amount in
    if up then v else -v

let exec_mem cpu mem mode addr (out : run) ~load ~width ~rd ~rn ~offset ~pre
    ~writeback =
  let base = read_op_reg cpu mode addr rn in
  let off = mem_offset_value cpu mode addr offset in
  let access_addr = if pre then (base + off) land mask32 else base in
  if load then (
    let v =
      match width with
      | Insn.Word -> Memory.read_u32 mem access_addr
      | Insn.Byte -> Memory.read_u8 mem access_addr
      | Insn.Half -> Memory.read_u16 mem access_addr
    in
    if rd = 15 then out.r_branch_to <- interwork cpu v
    else Cpu.set_reg cpu rd v)
  else begin
    let v = read_op_reg cpu mode addr rd in
    match width with
    | Insn.Word -> Memory.write_u32 mem access_addr v
    | Insn.Byte -> Memory.write_u8 mem access_addr v
    | Insn.Half -> Memory.write_u16 mem access_addr v
  end;
  if (not pre) || writeback then
    if not (load && rd = rn) then Cpu.set_reg cpu rn ((base + off) land mask32)

(* Population count of a 16-bit register mask: LDM/STM register count. *)
let popcount16 mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go (mask land 0xFFFF) 0

let exec_block cpu mem (out : run) ~load ~rn ~mode:bmode ~writeback ~regs =
  let base = Cpu.reg cpu rn in
  let count = popcount16 regs in
  let start =
    match bmode with
    | Insn.IA -> base
    | Insn.IB -> base + 4
    | Insn.DA -> base - (4 * count) + 4
    | Insn.DB -> base - (4 * count)
  in
  let final =
    match bmode with
    | Insn.IA | Insn.IB -> base + (4 * count)
    | Insn.DA | Insn.DB -> base - (4 * count)
  in
  (* walk mask bits lowest-register-first; no register list is built *)
  let addr = ref start in
  for r = 0 to 15 do
    if regs land (1 lsl r) <> 0 then begin
      if load then (
        let v = Memory.read_u32 mem (!addr land mask32) in
        if r = 15 then out.r_branch_to <- interwork cpu v
        else Cpu.set_reg cpu r v)
      else Memory.write_u32 mem (!addr land mask32) (Cpu.reg cpu r);
      addr := !addr + 4
    end
  done;
  if writeback && not (load && regs land (1 lsl rn) <> 0) then
    Cpu.set_reg cpu rn (final land mask32)

let exec_vfp cpu mem mode addr (out : run) insn =
  ignore out;
  match insn with
  | Insn.Vdp { op; prec; vd; vn; vm; _ } ->
    (* matched in line on unboxed floats: passing them through a function
       value would box both operands and the result on every op *)
    let regs =
      match prec with Insn.F32 -> cpu.Cpu.vfp_s | Insn.F64 -> cpu.Cpu.vfp_d
    in
    let a = regs.(vn) and b = regs.(vm) in
    let r =
      match op with
      | Insn.VADD -> a +. b
      | Insn.VSUB -> a -. b
      | Insn.VMUL -> a *. b
      | Insn.VDIV -> a /. b
    in
    regs.(vd) <-
      (match prec with
       | Insn.F32 -> Int32.float_of_bits (Int32.bits_of_float r)
       | Insn.F64 -> r)
  | Insn.Vmem { load; prec; vd; rn; offset; _ } ->
    let a = (read_op_reg cpu mode addr rn + offset) land mask32 in
    (match (load, prec) with
     | true, Insn.F32 -> cpu.Cpu.vfp_s.(vd) <- Memory.read_f32 mem a
     | true, Insn.F64 -> cpu.Cpu.vfp_d.(vd) <- Memory.read_f64 mem a
     | false, Insn.F32 -> Memory.write_f32 mem a cpu.Cpu.vfp_s.(vd)
     | false, Insn.F64 -> Memory.write_f64 mem a cpu.Cpu.vfp_d.(vd))
  | Insn.Vmov_core { to_core; rt; sn; _ } ->
    if to_core then
      Cpu.set_reg cpu rt
        (Int32.to_int (Int32.bits_of_float cpu.Cpu.vfp_s.(sn)) land mask32)
    else
      cpu.Cpu.vfp_s.(sn) <-
        Int32.float_of_bits (Int32.of_int (Cpu.reg cpu rt))
  | Insn.Vcvt { to_double; vd; vm; _ } ->
    if to_double then cpu.Cpu.vfp_d.(vd) <- cpu.Cpu.vfp_s.(vm)
    else
      cpu.Cpu.vfp_s.(vd) <-
        Int32.float_of_bits (Int32.bits_of_float cpu.Cpu.vfp_d.(vm))
  | Insn.Vcvt_int { to_float; prec; vd; vm; _ } ->
    if to_float then (
      (* source: signed int bits held in s[vm] *)
      let bits = Int32.bits_of_float cpu.Cpu.vfp_s.(vm) in
      let i = Int32.to_int bits in
      match prec with
      | Insn.F32 -> cpu.Cpu.vfp_s.(vd) <- float_of_int i
      | Insn.F64 -> cpu.Cpu.vfp_d.(vd) <- float_of_int i)
    else
      let src =
        match prec with Insn.F32 -> cpu.Cpu.vfp_s.(vm) | Insn.F64 -> cpu.Cpu.vfp_d.(vm)
      in
      let i = Int32.of_float src in
      cpu.Cpu.vfp_s.(vd) <- Int32.float_of_bits i
  | _ -> assert false

let decode_at cpu mem addr =
  match cpu.Cpu.mode with
  | Cpu.Arm -> (
    let word = Memory.read_u32 mem addr in
    match Decode.decode word with
    | Some insn -> (insn, 4)
    | None -> raise (Undefined (addr, word)))
  | Cpu.Thumb -> (
    let half = Memory.read_u16 mem addr in
    let next = Some (Memory.read_u16 mem (addr + 2)) in
    match Thumb.decode half next with
    | Some (insn, size) -> (insn, size)
    | None -> raise (Undefined (addr, half)))

let fetch_decode ?icache cpu mem addr =
  match icache with
  | Some c ->
    if Icache.probe c addr then Icache.cached c addr
    else begin
      let entry = decode_at cpu mem addr in
      Icache.store c addr entry;
      entry
    end
  | None -> decode_at cpu mem addr

let is_return_insn insn =
  match insn with
  | Insn.Bx { link = false; rm = 14; _ } -> true
  | Insn.Block { load = true; regs; _ } when regs land 0x8000 <> 0 -> true
  | Insn.Dp { op = Insn.MOV; rd = 15; op2 = Insn.Reg 14; _ } -> true
  | _ -> false

(* Execute an already-decoded instruction fetched from [addr], writing the
   result into the caller-owned [out] record.  The machine's trace loop
   decodes once, shares the result between its instruction listeners and
   execution, and reuses a single [run] so the hot path allocates nothing. *)
let step_into (out : run) cpu mem ~addr insn size =
  let mode = cpu.Cpu.mode in
  let executed = Cpu.cond_passed cpu (Insn.cond_of insn) in
  (* Fall-through PC first; execution may override it. *)
  Cpu.set_pc cpu (addr + size);
  out.r_executed <- executed;
  out.r_branch_to <- -1;
  out.r_is_call <- false;
  out.r_svc <- -1;
  if executed then begin
    match insn with
    | Insn.Dp { op; s; rd; rn; op2; _ } -> exec_dp cpu mode addr out op s rd rn op2
    | Insn.Mul { s; rd; rm; rs; _ } ->
      let r = Cpu.reg cpu rm * Cpu.reg cpu rs land mask32 in
      let r = r land mask32 in
      Cpu.set_reg cpu rd r;
      if s then Cpu.set_nz cpu r
    | Insn.Mla { s; rd; rm; rs; rn; _ } ->
      let r = ((Cpu.reg cpu rm * Cpu.reg cpu rs) + Cpu.reg cpu rn) land mask32 in
      Cpu.set_reg cpu rd r;
      if s then Cpu.set_nz cpu r
    | Insn.Mull { signed; s; rdlo; rdhi; rm; rs; _ } ->
      let to64 v =
        if signed && v land 0x80000000 <> 0 then
          Int64.of_int (v - 0x100000000)
        else Int64.of_int v
      in
      let product = Int64.mul (to64 (Cpu.reg cpu rm)) (to64 (Cpu.reg cpu rs)) in
      let lo = Int64.to_int (Int64.logand product 0xFFFFFFFFL) in
      let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical product 32) 0xFFFFFFFFL) in
      Cpu.set_reg cpu rdlo lo;
      Cpu.set_reg cpu rdhi hi;
      if s then begin
        cpu.Cpu.n <- hi land 0x80000000 <> 0;
        cpu.Cpu.z <- lo = 0 && hi = 0
      end
    | Insn.Clz { rd; rm; _ } ->
      let v = Cpu.reg cpu rm in
      let rec count i = if i < 0 then 32 else if v land (1 lsl i) <> 0 then 31 - i else count (i - 1) in
      Cpu.set_reg cpu rd (count 31)
    | Insn.Mem { load; width; rd; rn; offset; pre; writeback; _ } ->
      exec_mem cpu mem mode addr out ~load ~width ~rd ~rn ~offset ~pre ~writeback
    | Insn.Block { load; rn; mode = bmode; writeback; regs; _ } ->
      exec_block cpu mem out ~load ~rn ~mode:bmode ~writeback ~regs
    | Insn.B { link; offset; _ } ->
      let unit_size = match mode with Cpu.Arm -> 4 | Cpu.Thumb -> 2 in
      let target = (pc_read mode addr + (offset * unit_size)) land mask32 in
      if link then begin
        out.r_is_call <- true;
        let ret = addr + size in
        Cpu.set_reg cpu 14
          (match mode with Cpu.Arm -> ret | Cpu.Thumb -> ret lor 1)
      end;
      out.r_branch_to <- target
    | Insn.Bx { link; rm; _ } ->
      let target = read_op_reg cpu mode addr rm in
      if link then begin
        out.r_is_call <- true;
        let ret = addr + size in
        Cpu.set_reg cpu 14
          (match mode with Cpu.Arm -> ret | Cpu.Thumb -> ret lor 1)
      end;
      out.r_branch_to <- interwork cpu target
    | Insn.Svc { imm; _ } -> out.r_svc <- imm
    | Insn.Vdp _ | Insn.Vmem _ | Insn.Vmov_core _ | Insn.Vcvt _ | Insn.Vcvt_int _ ->
      exec_vfp cpu mem mode addr out insn
  end;
  if out.r_branch_to >= 0 then Cpu.set_pc cpu out.r_branch_to

(* Record-building variant for callers that want the full step summary. *)
let step_decoded cpu mem ~addr insn size =
  let mode = cpu.Cpu.mode in
  let out = run_create () in
  step_into out cpu mem ~addr insn size;
  { addr;
    insn;
    size;
    mode;
    executed = out.r_executed;
    branch =
      (if out.r_branch_to >= 0 then Some (addr, out.r_branch_to) else None);
    is_call = out.r_is_call;
    is_return = out.r_executed && is_return_insn insn;
    svc = (if out.r_svc >= 0 then Some out.r_svc else None) }

let step ?icache cpu mem =
  let addr = Cpu.pc cpu in
  let insn, size = fetch_decode ?icache cpu mem addr in
  step_decoded cpu mem ~addr insn size
