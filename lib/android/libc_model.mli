(** Modeled C library.

    "Since the system standard functions will be frequently called by native
    libraries, instrumenting every instruction in these standard functions
    will take a long time and incur heavy overhead.  Instead, we model the
    taint propagation operations for popular functions" (paper, Sec. V-D).

    This module supplies the {e behaviour} of those functions (Table VI's
    libc column plus Table VII's call surface): each is a host function
    mounted at an address inside the guest's libc.so.  The taint summaries
    live in NDroid's system-lib hook engine; behaviour runs regardless of
    which analysis is attached, exactly as the real libc does. *)

module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory

type ctx

val create_ctx : Filesystem.t -> Network.t -> Native_heap.t -> ctx

val functions : (string * (ctx -> Cpu.t -> Memory.t -> unit)) list
(** Every modeled function as (name, handler), in the order the device
    mounts them.  A handler takes the device's libc state, reads its
    arguments from r0-r3 and the stack per the AAPCS, performs the
    behaviour, and leaves the result in r0 (r0:r1 for doubles). *)

val arg : Cpu.t -> Memory.t -> int -> int
(** AAPCS argument [i]: r0-r3 then the stack. *)

(** A vararg consumed by the printf family, as both the formatter and
    NDroid's sink handler need to see them. *)
type vararg =
  | Str of { addr : int; value : string }  (** a [%s] argument *)
  | Num of int  (** any numeric argument *)

val format_args :
  Memory.t -> Cpu.t -> fmt:int -> first:int -> string * vararg list
(** [format_args mem cpu ~fmt ~first] renders the format string at guest
    address [fmt] taking varargs starting at AAPCS argument index [first].
    Supports [%s %d %u %x %c %%]. Returns the rendered string and the
    varargs consumed in order. *)

val file_fd : ctx -> int -> int option
(** Map a [FILE*] guest pointer to its file descriptor. *)

val set_dl : ctx -> dl_open:(string -> int) -> dl_sym:(int -> string -> int) -> unit
(** Install the dynamic loader backing [dlopen]/[dlsym].  The runtime wires
    these to its library table, letting native code load a second-stage
    library and call into it by function pointer — the "hide the core
    business logic" pattern of the paper's Type II study. *)
