module Taint = Ndroid_taint.Taint
module Taint_map = Ndroid_taint.Taint_map
module Shadow_regs = Ndroid_taint.Shadow_regs
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu

type t = {
  regs : Shadow_regs.t;
  sregs : Shadow_regs.t;
  dregs : Shadow_regs.t;
  map : Taint_map.t;
}

let create () =
  { regs = Shadow_regs.create 16;
    sregs = Shadow_regs.create 32;
    dregs = Shadow_regs.create 16;
    map = Taint_map.create () }

let reg t i = Shadow_regs.get t.regs i
let set_reg t i tag = Shadow_regs.set t.regs i tag
let sreg t i = Shadow_regs.get t.sregs i
let set_sreg t i tag = Shadow_regs.set t.sregs i tag
let dreg t i = Shadow_regs.get t.dregs i
let set_dreg t i tag = Shadow_regs.set t.dregs i tag

let mem t addr len = Taint_map.get_range t.map addr len
let set_mem t addr len tag = Taint_map.set_range t.map addr len tag
let add_mem t addr len tag = Taint_map.add_range t.map addr len tag
let clear_mem t addr len = Taint_map.clear_range t.map addr len
let copy_mem t ~src ~dst ~len = Taint_map.copy_range t.map ~src ~dst ~len

let op2_taint t = function
  | Insn.Imm _ -> Taint.clear
  | Insn.Reg r | Insn.Reg_shift_imm (r, _, _) | Insn.Reg_shift_reg (r, _, _) ->
    reg t r

let tainted_bytes t = Taint_map.tainted_bytes t.map
let any_reg_tainted t = Shadow_regs.any_tainted t.regs

let reset t =
  Shadow_regs.clear_all t.regs;
  Shadow_regs.clear_all t.sregs;
  Shadow_regs.clear_all t.dregs;
  Taint_map.reset t.map
