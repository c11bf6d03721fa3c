(** Single-step instruction executor.

    Fetches at the CPU's PC (in the CPU's current instruction-set mode),
    decodes (through the optional hot-instruction cache), checks the
    condition, executes, and reports what happened.  Control transfers are
    reported so the emulator layer can drive hooks and host-function
    dispatch: "when processing a branch instruction, if the target method is
    in the list, NDroid will call its analysis functions" (paper,
    Sec. V-G). *)

exception Undefined of int * int
(** [Undefined (addr, word)]: fetched bits that the decoder rejects. *)

(** What one step did. *)
type step = {
  addr : int;  (** address the instruction was fetched from *)
  insn : Insn.t;
  size : int;  (** 2 or 4 bytes *)
  mode : Cpu.mode;  (** mode the instruction executed in *)
  executed : bool;  (** [false] when the condition failed *)
  branch : (int * int) option;
      (** [(from, to)] when control transferred anywhere but fall-through *)
  is_call : bool;  (** BL / BLX: a function call *)
  is_return : bool;  (** a recognised return idiom: BX lr, POP {..pc}, MOV pc *)
  svc : int option;  (** SVC immediate when a supervisor call was made *)
}

val shift_value : int -> Insn.shift_kind -> int -> int
(** [shift_value value kind amount]: the barrel shifter's 32-bit result,
    without the carry-out.  An [amount] of 0 leaves [value] unchanged. *)

val fetch_decode : ?icache:Icache.t -> Cpu.t -> Memory.t -> int -> Insn.t * int
(** [fetch_decode cpu mem addr] decodes the instruction at [addr] in the
    CPU's current mode.  @raise Undefined on unsupported encodings. *)

val step : ?icache:Icache.t -> Cpu.t -> Memory.t -> step
(** Execute one instruction at the current PC.  Updates all CPU and memory
    state, including the PC (fall-through or branch target).
    @raise Undefined on unsupported encodings. *)

val step_decoded : Cpu.t -> Memory.t -> addr:int -> Insn.t -> int -> step
(** [step_decoded cpu mem ~addr insn size] executes [insn], already decoded
    from [addr] by {!fetch_decode}.  This is the trace loop's single-decode
    path: the machine decodes once, shows the instruction to its listeners,
    then executes the same decode result. *)

(** Mutable per-step result for the allocation-free execution path.
    Sentinel [-1] means "none" for {!field-r_branch_to} and {!field-r_svc}
    (branch targets and SVC immediates are always non-negative). *)
type run = {
  mutable r_executed : bool;
  mutable r_branch_to : int;
  mutable r_is_call : bool;
  mutable r_svc : int;
}

val run_create : unit -> run
(** A fresh result record; the trace loop makes one and reuses it forever. *)

val step_into : run -> Cpu.t -> Memory.t -> addr:int -> Insn.t -> int -> unit
(** [step_into out cpu mem ~addr insn size] is {!step_decoded} writing into
    the caller-owned [out] instead of allocating a {!type-step}: every field
    of [out] is overwritten.  Callers that may re-enter the executor from an
    event listener must copy what they need out of [out] before emitting. *)
