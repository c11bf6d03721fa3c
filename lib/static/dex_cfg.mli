(** Per-method control-flow graph over Dalvik bytecode, with reaching
    definitions.

    Branch targets in {!Ndroid_dalvik.Bytecode} are instruction indexes, so
    the CFG works directly on indexes: instruction-level successors drive
    the flow-sensitive taint pass, and reaching definitions give each use
    site its def chain.  The reaching-definitions table is built on the
    first {!reaching_defs} query, so a CFG built only for its successors
    never pays for it. *)

type t

val of_code :
  ?handlers:Ndroid_dalvik.Classes.handler list ->
  Ndroid_dalvik.Bytecode.t array -> t

val succs : t -> int -> int list
(** Normal (non-exceptional) successor indexes of instruction [pc];
    [[]] after returns/throws and for out-of-range targets. *)

val handler_succs : t -> int -> int list
(** Exception-handler entry points covering [pc]. *)

val blocks : t -> (int * int) list
(** Basic blocks as [(start, end_exclusive)] pairs, in address order:
    maximal straight runs. *)

val uses : Ndroid_dalvik.Bytecode.t -> int list
(** Registers read by one instruction ([-1] stands for the result
    register read by [Move_result]). *)

val max_reg : Ndroid_dalvik.Bytecode.t array -> int
(** The highest register any instruction writes or reads; [-1] when none
    does. *)

val reaching_defs : t -> int -> int -> int list
(** [reaching_defs t pc reg]: indexes of definitions of [reg] that reach
    [pc] (entry definitions — parameters — appear as [-1]). *)
