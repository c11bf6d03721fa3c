type reg = int

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let sp = 13
let lr = 14
let pc = 15

let pp_reg ppf r =
  match r with
  | 13 -> Format.pp_print_string ppf "sp"
  | 14 -> Format.pp_print_string ppf "lr"
  | 15 -> Format.pp_print_string ppf "pc"
  | n -> Format.fprintf ppf "r%d" n

type cond = EQ | NE | CS | CC | MI | PL | VS | VC | HI | LS | GE | LT | GT | LE | AL

let cond_code = function
  | EQ -> 0
  | NE -> 1
  | CS -> 2
  | CC -> 3
  | MI -> 4
  | PL -> 5
  | VS -> 6
  | VC -> 7
  | HI -> 8
  | LS -> 9
  | GE -> 10
  | LT -> 11
  | GT -> 12
  | LE -> 13
  | AL -> 14

let cond_of_code = function
  | 0 -> Some EQ
  | 1 -> Some NE
  | 2 -> Some CS
  | 3 -> Some CC
  | 4 -> Some MI
  | 5 -> Some PL
  | 6 -> Some VS
  | 7 -> Some VC
  | 8 -> Some HI
  | 9 -> Some LS
  | 10 -> Some GE
  | 11 -> Some LT
  | 12 -> Some GT
  | 13 -> Some LE
  | 14 -> Some AL
  | _ -> None

let cond_name = function
  | EQ -> "EQ"
  | NE -> "NE"
  | CS -> "CS"
  | CC -> "CC"
  | MI -> "MI"
  | PL -> "PL"
  | VS -> "VS"
  | VC -> "VC"
  | HI -> "HI"
  | LS -> "LS"
  | GE -> "GE"
  | LT -> "LT"
  | GT -> "GT"
  | LE -> "LE"
  | AL -> ""

type shift_kind = LSL | LSR | ASR | ROR

let shift_code = function LSL -> 0 | LSR -> 1 | ASR -> 2 | ROR -> 3

let shift_of_code = function
  | 0 -> LSL
  | 1 -> LSR
  | 2 -> ASR
  | 3 -> ROR
  | n -> invalid_arg (Printf.sprintf "shift_of_code %d" n)

let pp_shift ppf k =
  Format.pp_print_string ppf
    (match k with LSL -> "LSL" | LSR -> "LSR" | ASR -> "ASR" | ROR -> "ROR")

type operand2 =
  | Imm of int
  | Reg of reg
  | Reg_shift_imm of reg * shift_kind * int
  | Reg_shift_reg of reg * shift_kind * reg

type dp_op =
  | AND
  | EOR
  | SUB
  | RSB
  | ADD
  | ADC
  | SBC
  | RSC
  | TST
  | TEQ
  | CMP
  | CMN
  | ORR
  | MOV
  | BIC
  | MVN

let dp_code = function
  | AND -> 0
  | EOR -> 1
  | SUB -> 2
  | RSB -> 3
  | ADD -> 4
  | ADC -> 5
  | SBC -> 6
  | RSC -> 7
  | TST -> 8
  | TEQ -> 9
  | CMP -> 10
  | CMN -> 11
  | ORR -> 12
  | MOV -> 13
  | BIC -> 14
  | MVN -> 15

let dp_of_code = function
  | 0 -> AND
  | 1 -> EOR
  | 2 -> SUB
  | 3 -> RSB
  | 4 -> ADD
  | 5 -> ADC
  | 6 -> SBC
  | 7 -> RSC
  | 8 -> TST
  | 9 -> TEQ
  | 10 -> CMP
  | 11 -> CMN
  | 12 -> ORR
  | 13 -> MOV
  | 14 -> BIC
  | 15 -> MVN
  | n -> invalid_arg (Printf.sprintf "dp_of_code %d" n)

let dp_name = function
  | AND -> "AND"
  | EOR -> "EOR"
  | SUB -> "SUB"
  | RSB -> "RSB"
  | ADD -> "ADD"
  | ADC -> "ADC"
  | SBC -> "SBC"
  | RSC -> "RSC"
  | TST -> "TST"
  | TEQ -> "TEQ"
  | CMP -> "CMP"
  | CMN -> "CMN"
  | ORR -> "ORR"
  | MOV -> "MOV"
  | BIC -> "BIC"
  | MVN -> "MVN"

let is_test_op = function TST | TEQ | CMP | CMN -> true | _ -> false

let is_move_op = function
  | MOV | MVN -> true
  | AND | EOR | SUB | RSB | ADD | ADC | SBC | RSC | TST | TEQ | CMP | CMN | ORR
  | BIC ->
    false

type mem_offset = Off_imm of int | Off_reg of bool * reg * shift_kind * int
type block_mode = IA | IB | DA | DB
type mem_width = Word | Byte | Half
type vfp_prec = F32 | F64
type vfp_op = VADD | VSUB | VMUL | VDIV

type t =
  | Dp of { cond : cond; op : dp_op; s : bool; rd : reg; rn : reg; op2 : operand2 }
  | Mul of { cond : cond; s : bool; rd : reg; rm : reg; rs : reg }
  | Mla of { cond : cond; s : bool; rd : reg; rm : reg; rs : reg; rn : reg }
  | Mull of
      { cond : cond; signed : bool; s : bool; rdlo : reg; rdhi : reg; rm : reg;
        rs : reg }
  | Clz of { cond : cond; rd : reg; rm : reg }
  | Mem of
      { cond : cond;
        load : bool;
        width : mem_width;
        rd : reg;
        rn : reg;
        offset : mem_offset;
        pre : bool;
        writeback : bool
      }
  | Block of
      { cond : cond;
        load : bool;
        rn : reg;
        mode : block_mode;
        writeback : bool;
        regs : int
      }
  | B of { cond : cond; link : bool; offset : int }
  | Bx of { cond : cond; link : bool; rm : reg }
  | Svc of { cond : cond; imm : int }
  | Vdp of { cond : cond; op : vfp_op; prec : vfp_prec; vd : int; vn : int; vm : int }
  | Vmem of
      { cond : cond; load : bool; prec : vfp_prec; vd : int; rn : reg; offset : int }
  | Vmov_core of { cond : cond; to_core : bool; rt : reg; sn : int }
  | Vcvt of { cond : cond; to_double : bool; vd : int; vm : int }
  | Vcvt_int of { cond : cond; to_float : bool; prec : vfp_prec; vd : int; vm : int }

let cond_of = function
  | Dp { cond; _ }
  | Mul { cond; _ }
  | Mla { cond; _ }
  | Mull { cond; _ }
  | Clz { cond; _ }
  | Mem { cond; _ }
  | Block { cond; _ }
  | B { cond; _ }
  | Bx { cond; _ }
  | Svc { cond; _ }
  | Vdp { cond; _ }
  | Vmem { cond; _ }
  | Vmov_core { cond; _ }
  | Vcvt { cond; _ }
  | Vcvt_int { cond; _ } ->
    cond

let reg_list_mask regs = List.fold_left (fun m r -> m lor (1 lsl r)) 0 regs

let regs_of_mask mask =
  let rec loop acc i =
    if i < 0 then acc
    else if mask land (1 lsl i) <> 0 then loop (i :: acc) (i - 1)
    else loop acc (i - 1)
  in
  loop [] 15

let pp_op2 ppf = function
  | Imm n -> Format.fprintf ppf "#%d" n
  | Reg r -> pp_reg ppf r
  | Reg_shift_imm (r, k, n) -> Format.fprintf ppf "%a %a #%d" pp_reg r pp_shift k n
  | Reg_shift_reg (r, k, rs) ->
    Format.fprintf ppf "%a %a %a" pp_reg r pp_shift k pp_reg rs

let pp_mem_offset ppf = function
  | Off_imm n -> Format.fprintf ppf "#%d" n
  | Off_reg (up, r, _, 0) -> Format.fprintf ppf "%s%a" (if up then "" else "-") pp_reg r
  | Off_reg (up, r, k, n) ->
    Format.fprintf ppf "%s%a %a #%d" (if up then "" else "-") pp_reg r pp_shift k n

let pp ppf insn =
  let c = cond_name (cond_of insn) in
  match insn with
  | Dp { op; s; rd; rn; op2; _ } ->
    let sfx = if s && not (is_test_op op) then "S" else "" in
    if is_test_op op then
      Format.fprintf ppf "%s%s %a, %a" (dp_name op) c pp_reg rn pp_op2 op2
    else if is_move_op op then
      Format.fprintf ppf "%s%s%s %a, %a" (dp_name op) c sfx pp_reg rd pp_op2 op2
    else
      Format.fprintf ppf "%s%s%s %a, %a, %a" (dp_name op) c sfx pp_reg rd pp_reg rn
        pp_op2 op2
  | Mul { s; rd; rm; rs; _ } ->
    Format.fprintf ppf "MUL%s%s %a, %a, %a" c (if s then "S" else "") pp_reg rd
      pp_reg rm pp_reg rs
  | Mla { s; rd; rm; rs; rn; _ } ->
    Format.fprintf ppf "MLA%s%s %a, %a, %a, %a" c (if s then "S" else "") pp_reg rd
      pp_reg rm pp_reg rs pp_reg rn
  | Mull { signed; s; rdlo; rdhi; rm; rs; _ } ->
    Format.fprintf ppf "%sMULL%s%s %a, %a, %a, %a"
      (if signed then "S" else "U")
      c (if s then "S" else "") pp_reg rdlo pp_reg rdhi pp_reg rm pp_reg rs
  | Clz { rd; rm; _ } -> Format.fprintf ppf "CLZ%s %a, %a" c pp_reg rd pp_reg rm
  | Mem { load; width; rd; rn; offset; pre; writeback; _ } ->
    let name = if load then "LDR" else "STR" in
    let w = match width with Word -> "" | Byte -> "B" | Half -> "H" in
    if pre then
      Format.fprintf ppf "%s%s%s %a, [%a, %a]%s" name c w pp_reg rd pp_reg rn
        pp_mem_offset offset
        (if writeback then "!" else "")
    else
      Format.fprintf ppf "%s%s%s %a, [%a], %a" name c w pp_reg rd pp_reg rn
        pp_mem_offset offset
  | Block { load; rn; mode; writeback; regs; _ } ->
    let name = if load then "LDM" else "STM" in
    let m = match mode with IA -> "IA" | IB -> "IB" | DA -> "DA" | DB -> "DB" in
    let rl = regs_of_mask regs in
    Format.fprintf ppf "%s%s%s %a%s, {%a}" name m c pp_reg rn
      (if writeback then "!" else "")
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_reg)
      rl
  | B { link; offset; _ } ->
    Format.fprintf ppf "B%s%s #%d" (if link then "L" else "") c offset
  | Bx { link; rm; _ } ->
    Format.fprintf ppf "B%sX%s %a" (if link then "L" else "") c pp_reg rm
  | Svc { imm; _ } -> Format.fprintf ppf "SVC%s #0x%x" c imm
  | Vdp { op; prec; vd; vn; vm; _ } ->
    let name =
      match op with VADD -> "VADD" | VSUB -> "VSUB" | VMUL -> "VMUL" | VDIV -> "VDIV"
    in
    let p, b = match prec with F32 -> (".F32", "s") | F64 -> (".F64", "d") in
    Format.fprintf ppf "%s%s%s %s%d, %s%d, %s%d" name c p b vd b vn b vm
  | Vmem { load; prec; vd; rn; offset; _ } ->
    let name = if load then "VLDR" else "VSTR" in
    let b = match prec with F32 -> "s" | F64 -> "d" in
    Format.fprintf ppf "%s%s %s%d, [%a, #%d]" name c b vd pp_reg rn offset
  | Vmov_core { to_core; rt; sn; _ } ->
    if to_core then Format.fprintf ppf "VMOV%s %a, s%d" c pp_reg rt sn
    else Format.fprintf ppf "VMOV%s s%d, %a" c sn pp_reg rt
  | Vcvt { to_double; vd; vm; _ } ->
    if to_double then Format.fprintf ppf "VCVT%s.F64.F32 d%d, s%d" c vd vm
    else Format.fprintf ppf "VCVT%s.F32.F64 s%d, d%d" c vd vm
  | Vcvt_int { to_float; prec; vd; vm; _ } -> (
    match (to_float, prec) with
    | true, F32 -> Format.fprintf ppf "VCVT%s.F32.S32 s%d, s%d" c vd vm
    | true, F64 -> Format.fprintf ppf "VCVT%s.F64.S32 d%d, s%d" c vd vm
    | false, F32 -> Format.fprintf ppf "VCVT%s.S32.F32 s%d, s%d" c vd vm
    | false, F64 -> Format.fprintf ppf "VCVT%s.S32.F64 s%d, d%d" c vd vm)

let to_string insn = Format.asprintf "%a" pp insn

let dp ?(cond = AL) ?(s = false) op rd rn op2 = Dp { cond; op; s; rd; rn; op2 }
let mov rd op2 = dp MOV rd 0 op2
let movs rd op2 = dp ~s:true MOV rd 0 op2
let mvn rd op2 = dp MVN rd 0 op2
let add rd rn op2 = dp ADD rd rn op2
let adds rd rn op2 = dp ~s:true ADD rd rn op2
let adc rd rn op2 = dp ADC rd rn op2
let sub rd rn op2 = dp SUB rd rn op2
let subs rd rn op2 = dp ~s:true SUB rd rn op2
let and_ rd rn op2 = dp AND rd rn op2
let orr rd rn op2 = dp ORR rd rn op2
let eor rd rn op2 = dp EOR rd rn op2
let bic rd rn op2 = dp BIC rd rn op2
let cmp rn op2 = dp ~s:true CMP 0 rn op2
let tst rn op2 = dp ~s:true TST 0 rn op2
let mul rd rm rs = Mul { cond = AL; s = false; rd; rm; rs }
let mla rd rm rs rn = Mla { cond = AL; s = false; rd; rm; rs; rn }

let umull rdlo rdhi rm rs =
  Mull { cond = AL; signed = false; s = false; rdlo; rdhi; rm; rs }

let smull rdlo rdhi rm rs =
  Mull { cond = AL; signed = true; s = false; rdlo; rdhi; rm; rs }

let clz rd rm = Clz { cond = AL; rd; rm }

let mem load width rd rn off =
  Mem { cond = AL; load; width; rd; rn; offset = Off_imm off; pre = true; writeback = false }

let ldr rd rn off = mem true Word rd rn off
let str rd rn off = mem false Word rd rn off
let ldrb rd rn off = mem true Byte rd rn off
let strb rd rn off = mem false Byte rd rn off
let ldrh rd rn off = mem true Half rd rn off
let strh rd rn off = mem false Half rd rn off

let push regs =
  Block { cond = AL; load = false; rn = sp; mode = DB; writeback = true;
          regs = reg_list_mask regs }

let pop regs =
  Block { cond = AL; load = true; rn = sp; mode = IA; writeback = true;
          regs = reg_list_mask regs }

let bx_lr = Bx { cond = AL; link = false; rm = lr }
let blx_reg rm = Bx { cond = AL; link = true; rm }
let svc imm = Svc { cond = AL; imm }
