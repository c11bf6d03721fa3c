(** ARM/Thumb instruction AST.

    This is the instruction vocabulary of the simulated CPU.  It covers the
    subset needed by the paper's native workloads: the full data-processing
    family, multiply, single and multiple load/store (including PUSH/POP),
    branches (B/BL/BX/BLX), SVC, and a VFP slice for the floating-point
    CF-Bench workloads.  Each constructor corresponds to one row family of
    Table V's taint propagation logic.

    Instructions decoded from Thumb halfwords are represented with the same
    AST (a Thumb [ADDS r0, r1, r2] means the same thing as the ARM one), so
    the executor and NDroid's instruction tracer handle both instruction
    sets with a single rule table, mirroring how the paper's tracer
    "processes ARM/Thumb instructions" uniformly. *)

type reg = int
(** Register number 0..15.  13 = SP, 14 = LR, 15 = PC. *)

val r0 : reg
val r1 : reg
val r2 : reg
val r3 : reg
val r4 : reg
val r5 : reg
val r6 : reg
val r7 : reg
val sp : reg
val lr : reg
val pc : reg

(** Condition codes, encoded in bits 31:28 of every ARM instruction. *)
type cond =
  | EQ
  | NE
  | CS
  | CC
  | MI
  | PL
  | VS
  | VC
  | HI
  | LS
  | GE
  | LT
  | GT
  | LE
  | AL

val cond_code : cond -> int
(** The 4-bit encoding of a condition. *)

val cond_of_code : int -> cond option
(** Inverse of {!cond_code}; [None] for 0b1111 (unconditional space). *)

(** Barrel-shifter operations. *)
type shift_kind = LSL | LSR | ASR | ROR

val shift_code : shift_kind -> int
val shift_of_code : int -> shift_kind

(** The flexible second operand of data-processing instructions. *)
type operand2 =
  | Imm of int  (** 8-bit immediate rotated right by an even amount *)
  | Reg of reg
  | Reg_shift_imm of reg * shift_kind * int
  | Reg_shift_reg of reg * shift_kind * reg

(** Data-processing opcodes, in their 4-bit encoding order. *)
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

val dp_code : dp_op -> int
val dp_of_code : int -> dp_op

val is_test_op : dp_op -> bool
(** [true] for TST/TEQ/CMP/CMN, which write flags only. *)

val is_move_op : dp_op -> bool
(** [true] for MOV/MVN, which ignore [rn]. *)

(** Addressing offset of single load/store. *)
type mem_offset =
  | Off_imm of int  (** signed immediate, -4095..4095 *)
  | Off_reg of bool * reg * shift_kind * int
      (** [Off_reg (up, rm, kind, amount)]: +/- shifted register *)

(** Block-transfer addressing modes of LDM/STM. *)
type block_mode = IA | IB | DA | DB

(** Width of single load/store transfers. *)
type mem_width = Word | Byte | Half

(** VFP precision. *)
type vfp_prec = F32 | F64

(** VFP data-processing operations. *)
type vfp_op = VADD | VSUB | VMUL | VDIV

(** The instruction set. *)
type t =
  | Dp of { cond : cond; op : dp_op; s : bool; rd : reg; rn : reg; op2 : operand2 }
      (** Data processing.  For test ops [rd] = 0; for moves [rn] = 0. *)
  | Mul of { cond : cond; s : bool; rd : reg; rm : reg; rs : reg }
      (** [rd := rm * rs] *)
  | Mla of { cond : cond; s : bool; rd : reg; rm : reg; rs : reg; rn : reg }
      (** [rd := rm * rs + rn] *)
  | Mull of
      { cond : cond; signed : bool; s : bool; rdlo : reg; rdhi : reg; rm : reg;
        rs : reg }  (** UMULL/SMULL: [rdhi:rdlo := rm * rs] (64-bit) *)
  | Clz of { cond : cond; rd : reg; rm : reg }
      (** count leading zeros *)
  | Mem of
      { cond : cond;
        load : bool;
        width : mem_width;
        rd : reg;
        rn : reg;
        offset : mem_offset;
        pre : bool;  (** pre-indexed (offset applied before access) *)
        writeback : bool  (** base register updated *)
      }  (** LDR/STR and byte/halfword variants. *)
  | Block of
      { cond : cond;
        load : bool;
        rn : reg;
        mode : block_mode;
        writeback : bool;
        regs : int  (** register-list bitmask, bit i = register i *)
      }  (** LDM/STM; PUSH = [STM DB SP!], POP = [LDM IA SP!]. *)
  | B of { cond : cond; link : bool; offset : int }
      (** Branch; [offset] is in instructions (words), relative to PC+8. *)
  | Bx of { cond : cond; link : bool; rm : reg }
      (** BX/BLX (register). *)
  | Svc of { cond : cond; imm : int }  (** Supervisor call. *)
  | Vdp of
      { cond : cond; op : vfp_op; prec : vfp_prec; vd : int; vn : int; vm : int }
      (** VFP arithmetic on s (F32) or d (F64) registers. *)
  | Vmem of
      { cond : cond; load : bool; prec : vfp_prec; vd : int; rn : reg; offset : int }
      (** VLDR/VSTR; [offset] is a signed multiple of 4 bytes. *)
  | Vmov_core of { cond : cond; to_core : bool; rt : reg; sn : int }
      (** VMOV between a core register and an s register. *)
  | Vcvt of { cond : cond; to_double : bool; vd : int; vm : int }
      (** VCVT.F64.F32 / VCVT.F32.F64. *)
  | Vcvt_int of { cond : cond; to_float : bool; prec : vfp_prec; vd : int; vm : int }
      (** VCVT between a signed 32-bit integer (held in an s register) and
          F32/F64. *)

val cond_of : t -> cond
(** The condition under which an instruction executes. *)

val pp : Format.formatter -> t -> unit
(** Disassembly-style printer, e.g. [ADDS r0, r1, r2 LSL #3]. *)

val to_string : t -> string

(** {1 Convenience constructors (condition AL, no flags)} *)

val mov : reg -> operand2 -> t
val movs : reg -> operand2 -> t
val mvn : reg -> operand2 -> t
val add : reg -> reg -> operand2 -> t
val adds : reg -> reg -> operand2 -> t
val adc : reg -> reg -> operand2 -> t
val sub : reg -> reg -> operand2 -> t
val subs : reg -> reg -> operand2 -> t
val and_ : reg -> reg -> operand2 -> t
val orr : reg -> reg -> operand2 -> t
val eor : reg -> reg -> operand2 -> t
val bic : reg -> reg -> operand2 -> t
val cmp : reg -> operand2 -> t
val tst : reg -> operand2 -> t
val mul : reg -> reg -> reg -> t
val mla : reg -> reg -> reg -> reg -> t
val umull : reg -> reg -> reg -> reg -> t
(** [umull rdlo rdhi rm rs] *)

val smull : reg -> reg -> reg -> reg -> t
val clz : reg -> reg -> t
val ldr : reg -> reg -> int -> t
val str : reg -> reg -> int -> t
val ldrb : reg -> reg -> int -> t
val strb : reg -> reg -> int -> t
val ldrh : reg -> reg -> int -> t
val strh : reg -> reg -> int -> t
val push : reg list -> t
val pop : reg list -> t
val bx_lr : t
val blx_reg : reg -> t
val svc : int -> t

val regs_of_mask : int -> reg list
(** Ascending register list of a bitmask. *)
