(** Hot-instruction decode cache.

    "To speed up the identification of the instruction type and the search of
    the handler, NDroid caches hot instructions and the corresponding
    handlers" (paper, Sec. V-C).  The cache maps a fetch address to the
    decoded instruction and its byte size, avoiding re-decoding in loops.
    It is direct-mapped over halfword-aligned addresses: a lookup is two
    array reads, and a conflicting address silently evicts the previous
    tenant.  It has 256 slots, so both of its arrays stay in the minor
    heap.  Disable it to run ablation A1. *)

type t

val create : unit -> t
val find : t -> int -> (Insn.t * int) option
val store : t -> int -> Insn.t * int -> unit

val evict : t -> addr:int -> len:int -> unit
(** [evict c ~addr ~len] drops every cached instruction that a write of
    [len] bytes at [addr] may have changed: those starting from
    [addr - 2] (a 32-bit instruction straddling the write) to
    [addr + len - 1].  Other entries stay. *)

val probe : t -> int -> bool
(** Counter-updating membership test.  The allocation-free hit path of the
    trace loop: on [true], read the entry with {!cached}. *)

val cached : t -> int -> Insn.t * int
(** The entry stored in [addr]'s slot — meaningful only immediately after
    {!probe} returned [true] for the same address. *)

val hits : t -> int
(** Lookup hits since creation (or the last {!clear}). *)

val misses : t -> int
