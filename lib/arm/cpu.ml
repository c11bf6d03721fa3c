type mode = Arm | Thumb

type t = {
  regs : int array;
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable mode : mode;
  vfp_s : float array;
  vfp_d : float array;
}

let mask32 = 0xFFFFFFFF

let create () =
  { regs = Array.make 16 0;
    n = false;
    z = false;
    c = false;
    v = false;
    mode = Arm;
    vfp_s = Array.make 32 0.0;
    vfp_d = Array.make 16 0.0 }

(* Reads skip masking: every write path masks, so stored values are always
   already in [0, 2^32). *)
let reg cpu i = cpu.regs.(i)
let set_reg cpu i v = cpu.regs.(i) <- v land mask32
let pc cpu = reg cpu 15
let set_pc cpu v = set_reg cpu 15 v
let sp cpu = reg cpu 13
let set_sp cpu v = set_reg cpu 13 v
let lr cpu = reg cpu 14

let set_nz cpu result =
  cpu.n <- result land 0x80000000 <> 0;
  cpu.z <- result land mask32 = 0

let cond_passed cpu = function
  | Insn.EQ -> cpu.z
  | Insn.NE -> not cpu.z
  | Insn.CS -> cpu.c
  | Insn.CC -> not cpu.c
  | Insn.MI -> cpu.n
  | Insn.PL -> not cpu.n
  | Insn.VS -> cpu.v
  | Insn.VC -> not cpu.v
  | Insn.HI -> cpu.c && not cpu.z
  | Insn.LS -> (not cpu.c) || cpu.z
  | Insn.GE -> cpu.n = cpu.v
  | Insn.LT -> cpu.n <> cpu.v
  | Insn.GT -> (not cpu.z) && cpu.n = cpu.v
  | Insn.LE -> cpu.z || cpu.n <> cpu.v
  | Insn.AL -> true

let copy cpu =
  { cpu with
    regs = Array.copy cpu.regs;
    vfp_s = Array.copy cpu.vfp_s;
    vfp_d = Array.copy cpu.vfp_d }
