(** ARM CPU state: 16 core registers, NZCV flags, execution mode, and the
    VFP register banks used by the floating-point CF-Bench workloads. *)

(** Instruction-set state, switched by BX/BLX interworking. *)
type mode = Arm | Thumb

type t = {
  regs : int array;  (** r0..r15 as unsigned 32-bit values *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable mode : mode;
  vfp_s : float array;  (** s0..s31, single precision *)
  vfp_d : float array;  (** d0..d15, double precision *)
}

val create : unit -> t
(** Fresh CPU: all registers zero, flags clear, ARM mode. *)

val reg : t -> int -> int
(** [reg cpu i] reads register [i] (masked to 32 bits). Reading r15 gives the
    raw stored PC; instruction-relative PC reads are the executor's job. *)

val set_reg : t -> int -> int -> unit
(** Write register [i], masking to 32 bits. *)

val pc : t -> int
val set_pc : t -> int -> unit
val sp : t -> int
val set_sp : t -> int -> unit
val lr : t -> int

val set_nz : t -> int -> unit
(** Set N and Z from a 32-bit result. *)

val cond_passed : t -> Insn.cond -> bool
(** Evaluate a condition code against the current flags. *)

val copy : t -> t
(** Deep copy, for save/restore around nested invocations. *)
