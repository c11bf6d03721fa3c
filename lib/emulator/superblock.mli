(** Superblock translation: pre-decoded straight-line blocks with fused
    taint propagation.

    One level up from the per-instruction {!Ndroid_arm.Icache}: a probe at a
    block-entry address yields a flat array of pre-decoded slots, each
    carrying a taint micro-op computed once at translate time.  Maximal runs
    of unconditional register-only instructions collapse their Table V
    transfers into a single fused operation over {e entry}-register taints;
    everything else falls back to the per-instruction rule
    ({!Insn_taint.step}).  Blocks self-invalidate by generation compare:
    {!Ndroid_arm.Memory.code_gen} (writes into watched code ranges) and the
    boundary generation ({!flush}, bumped when a new source-policy address
    appears and old block boundaries may now straddle it). *)

type taint_op =
  | T_none
  | T_fused of (int * int) array
      (** (rd, entry-register dependence mask) pairs: taint of [rd] after
          the run is the union of entry taints of the registers in mask *)
  | T_step  (** apply {!Insn_taint.step} at this program point *)

type slot = {
  sl_addr : int;
  sl_insn : Ndroid_arm.Insn.t;
  sl_size : int;
  sl_taint : taint_op;
  sl_store : bool;
      (** may write guest memory: executor re-checks [code_gen] after it *)
}

type block = {
  b_addr : int;
  b_mode : Ndroid_arm.Cpu.mode;
  b_gen : int;
  b_bgen : int;
  b_slots : slot array;
  mutable b_chain : block option;
      (** last observed successor, for direct block chaining *)
}

type t

val create : ?is_boundary:(int -> bool) -> unit -> t
(** Direct-mapped block cache of 2048 blocks of at most 32 instructions.
    [is_boundary] marks addresses blocks must not run through
    (source-policy entry points get their policy applied at block entry,
    so they must {e start} a block). *)

val set_ring : t -> Ndroid_obs.Ring.t -> unit
(** Observability hub for [sb_compile] events (default: disabled ring). *)

val flush : t -> unit
(** Invalidate every cached block (lazily, by bumping the boundary
    generation) — called when a new source-policy address appears. *)

val probe : t -> Ndroid_arm.Cpu.t -> Ndroid_arm.Memory.t -> int ->
  block option
(** Cached lookup: a valid cached block counts a hit; a stale one counts an
    invalidation and is retranslated in place. *)

val chain_to : t -> block -> Ndroid_arm.Cpu.t -> Ndroid_arm.Memory.t ->
  int -> block option
(** [chain_to t prev cpu mem next]: follow (or establish) the direct link
    from a just-executed block to its successor, skipping the table probe
    on the hot loop path. *)

val apply_fused : t -> Taint_engine.t -> (int * int) array -> unit
(** Apply one fused transfer: read all entry-register taints, then write
    each (rd, mask) pair's union. *)

val ends_block : Ndroid_arm.Insn.t -> bool
(** Exposed for the summary layer: instructions that can write the PC. *)

val fuse : Ndroid_arm.Insn.t array -> (int * int) array option
(** Compose the Table V transfers of a whole instruction sequence into
    (rd, entry-register dependence mask) pairs, or [None] if any
    instruction's rule needs live CPU state. *)

val compiles : t -> int
val hits : t -> int
val invalidations : t -> int
