(** NDroid's taint engine.

    "NDroid maintains shadow registers to store the related registers'
    taints and a taint map to store the memories' taints.  The taint
    granularity of NDroid is byte" (paper, Sec. V-E).

    We extend the paper's engine with shadow VFP registers so the
    floating-point workloads are covered too (the paper defers non-integer
    operations to future work). *)

module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu

type t

val create : unit -> t

val reg : t -> int -> Taint.t
val set_reg : t -> int -> Taint.t -> unit

val sreg : t -> int -> Taint.t
(** Shadow of VFP single register s<i>. *)

val set_sreg : t -> int -> Taint.t -> unit
val dreg : t -> int -> Taint.t
val set_dreg : t -> int -> Taint.t -> unit

val mem : t -> int -> int -> Taint.t
(** [mem t addr len]: union of the byte taints in [addr, addr+len). *)

val set_mem : t -> int -> int -> Taint.t -> unit
val add_mem : t -> int -> int -> Taint.t -> unit
val clear_mem : t -> int -> int -> unit
val copy_mem : t -> src:int -> dst:int -> len:int -> unit

val op2_taint : t -> Insn.operand2 -> Taint.t
(** Taint of a flexible operand: clear for immediates, the register's taint
    otherwise (the shift-amount register is ignored, exactly as Table V's
    rules only name Rn and Rm). *)

val tainted_bytes : t -> int
val any_reg_tainted : t -> bool
val reset : t -> unit
