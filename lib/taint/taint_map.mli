(** Byte-granularity memory taint map over page-based shadow memory.

    NDroid's taint engine keeps "a taint map to store the memories' taints"
    with byte granularity (paper, Sec. V-E).  The store is a sparse page
    table of lazily allocated 4 KiB tag pages mirroring the guest memory's
    layout; an untainted address means {!Taint.clear}.  Every page carries a
    tainted-byte summary and the map a global total, so lookups against a
    fully clear map are O(1) and range operations over clear pages are
    O(pages), both allocation-free — the dominant cases in the
    per-instruction trace loop. *)

type t

val create : unit -> t
(** A fresh, empty map. *)

val get : t -> int -> Taint.t
(** [get m addr] is the taint of the byte at [addr] ({!Taint.clear} when the
    byte has never been tainted). *)

val set : t -> int -> Taint.t -> unit
(** [set m addr tag] replaces the byte's taint.  Setting {!Taint.clear}
    removes the entry. *)

val add : t -> int -> Taint.t -> unit
(** [add m addr tag] unions [tag] into the byte's existing taint
    (the "t(B) := t(B) OR t(A)" rule). *)

val get_range : t -> int -> int -> Taint.t
(** [get_range m addr n] is the union of the taints of the [n] bytes
    starting at [addr]. *)

val set_range : t -> int -> int -> Taint.t -> unit
(** [set_range m addr n tag] replaces the taint of [n] bytes. *)

val add_range : t -> int -> int -> Taint.t -> unit
(** [add_range m addr n tag] unions [tag] into [n] bytes. *)

val clear_range : t -> int -> int -> unit
(** [clear_range m addr n] removes the taint of [n] bytes. *)

val copy_range : t -> src:int -> dst:int -> len:int -> unit
(** [copy_range m ~src ~dst ~len] copies byte taints from [src..src+len-1] to
    [dst..]; this is what the modeled [memcpy] does (paper, Listing 3).
    Handles overlapping ranges like [memmove]. *)

val tainted_bytes : t -> int
(** Number of bytes currently carrying a non-clear taint. *)

val reset : t -> unit
(** Remove every entry. *)
