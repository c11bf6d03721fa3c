(** Virtual filesystem.

    Backs the file-oriented libc calls of Table VII ([fopen], [fwrite],
    [fprintf], …) and the Java [FileOutputStream] sink.  Files live in
    memory; every write is also journaled so experiments can show exactly
    what leaked to, e.g., [/sdcard/CONTACTS] (Fig. 8). *)

type t

type write_record = { w_path : string; w_data : string }

val create : unit -> t

val open_file : t -> string -> [ `Read | `Write | `Append ] -> int
(** Returns a file descriptor. Opening for read a missing file raises
    [Not_found]. *)

val write : t -> int -> string -> int
(** Append data through a descriptor; returns the byte count.
    @raise Invalid_argument on a bad descriptor. *)

val read : t -> int -> int -> string
(** [read fs fd n] reads up to [n] bytes from the descriptor's position. *)

val close : t -> int -> unit
val contents : t -> string -> string
(** Whole-file contents. @raise Not_found if absent. *)

val set_contents : t -> string -> string -> unit
(** Create or replace a file (device images, assets). *)

val writes : t -> write_record list
(** The journal, oldest first. *)

val path_of_fd : t -> int -> string option

(** {1 Extended-attribute taint}

    TaintDroid persists taint across file storage in an extended attribute
    (the paper's experimental setup runs a kernel "with XATTR support for
    the YAFFS2 filesystem" for exactly this).  One tag per file. *)

val xattr_taint : t -> string -> Ndroid_taint.Taint.t
val add_xattr_taint : t -> string -> Ndroid_taint.Taint.t -> unit
val set_xattr_taint : t -> string -> Ndroid_taint.Taint.t -> unit
