(** Native heap: the allocator behind the modeled [malloc]/[free]/[realloc]
    (Table VI).

    A first-fit free-list allocator over the native heap region of the guest
    address space.  Addresses land around 0x2a000000, which is why the
    paper's ePhone/PoC logs show tainted C strings at 0x2a141b90-style
    addresses. *)

type t

val region_base : int

val create : unit -> t

val malloc : t -> int -> int
(** Allocate [n] bytes; returns the guest address (8-byte aligned).
    @raise Out_of_memory when the region is exhausted. *)

val free : t -> int -> unit
(** Release a block.  Freeing an unknown address is ignored (as glibc would
    corrupt silently, we prefer to shrug in a simulator). *)

val realloc : t -> int -> int -> int * int
(** [realloc h addr n] returns [(new_addr, old_size)] so the caller can copy
    [min old_size n] bytes. *)

val block_size : t -> int -> int option
(** Size of a live block. *)

val live_blocks : t -> int
