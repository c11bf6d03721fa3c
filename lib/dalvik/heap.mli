(** Object heap with a compacting (moving) garbage collector.

    Objects are identified by a stable integer id; each object also has a
    "direct pointer" — a pseudo-address in the Java-heap region of the
    address space — which {!compact} reassigns, simulating Dalvik's moving
    collector.  Since Android 4.0 native code must therefore use indirect
    references ([Jni.Indirect_ref]) rather than direct pointers (paper,
    Sec. II-A); a test moves the heap mid-flow and checks NDroid's taint,
    keyed by indirect reference, survives.

    Taint storage follows TaintDroid (paper, Sec. II-B): strings and arrays
    carry a single taint for their whole contents; instance fields carry one
    taint per field, interleaved with the values. *)

type kind =
  | String of string
  | Array of { elem_type : string; elems : Dvalue.t array }
  | Instance of { cls : string; values : Dvalue.t array; taints : Ndroid_taint.Taint.t array }

type obj = {
  id : int;
  mutable addr : int;  (** direct pointer; changes on {!compact} *)
  mutable kind : kind;
  mutable taint : Ndroid_taint.Taint.t;
      (** whole-object taint: the char-array taint for strings, the array
          taint for arrays, the reference taint otherwise *)
}

type t

val create : unit -> t
(** The direct-pointer region starts at 0x41000000, matching the addresses
    in the paper's logs, e.g. [0x412a3320]. *)

val alloc_string : t -> string -> obj
val alloc_array : t -> string -> int -> obj
val alloc_instance : t -> string -> int -> obj
(** [alloc_instance h cls nfields] allocates with [nfields] value slots. *)

val get : t -> int -> obj
(** Fetch by id. @raise Not_found for a dangling id. *)

val find_by_addr : t -> int -> obj option
(** Reverse lookup from a direct pointer, as the DVM-hook engine does when a
    JNI function returns a real object address. *)

val string_value : t -> int -> string
(** Chars of a string object. @raise Invalid_argument on non-strings. *)

val compact : t -> unit
(** Move every live object to a fresh direct address (round-robin between
    two semispace bases) and bump the heap epoch.  Ids are preserved. *)

val iter : t -> (obj -> unit) -> unit
