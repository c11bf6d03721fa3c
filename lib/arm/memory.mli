(** Sparse, page-granular guest memory.

    A single flat 32-bit little-endian address space shared by native code,
    native stack and heap, and mapped libraries.  Pages are allocated on
    first touch so mapping libraries at far-apart addresses (the memory-map
    layout NDroid's OS-level view reconstructor reports) costs nothing. *)

type t

val create : unit -> t

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit

val read_bytes : t -> int -> int -> Bytes.t
(** [read_bytes m addr n] copies [n] bytes out of guest memory. *)

val write_bytes : t -> int -> Bytes.t -> unit
val write_string : t -> int -> string -> unit

val read_cstring : t -> int -> string
(** [read_cstring m addr] reads a NUL-terminated string, at most 65536
    bytes, which bounds runaway reads. *)

val write_cstring : t -> int -> string -> unit
(** Write a string followed by a NUL byte. *)

val read_f32 : t -> int -> float
val read_f64 : t -> int -> float
val write_f32 : t -> int -> float -> unit
val write_f64 : t -> int -> float -> unit

val pages_touched : t -> int
(** Number of pages allocated so far (memory-map accounting). *)

val watch_code : t -> lo:int -> hi:int -> unit
(** Register [lo, hi] (inclusive) as translated/summarized code: any later
    guest write that overlaps a watched range bumps {!code_gen} and fires
    the {!on_code_write} callback.  The check costs two integer compares on
    the store fast path while no watch is registered. *)

val code_gen : t -> int
(** Generation counter bumped on every write into a watched code range.
    Cached translations record the generation they were made under and
    treat any later value as "my code may be stale". *)

val on_code_write : t -> (int -> int -> unit) -> unit
(** Set the (single) code-write observer, called with the write's start
    address and length after {!code_gen} is bumped.  The machine owns it:
    it evicts the decode-cache slots the write covers and tells the
    summary layer, which marks the owning library dirty. *)
