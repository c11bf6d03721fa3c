(** Control-flow recovery over a native library image.

    A {!Ndroid_arm.Asm.program} (as deserialized from a {!Ndroid_arm.Sofile})
    is swept with the linear disassembler ({!Ndroid_arm.Disasm}) in the
    program's own mode; the decoded stream is indexed by address, and basic
    blocks are recovered from exported symbols and branch targets.  The
    byte image stays accessible so the abstract interpreter can read
    NUL-terminated strings ([FindClass]/[GetMethodID] operands) out of the
    library's data section. *)

type t

val of_program : name:string -> Ndroid_arm.Asm.program -> t

val name : t -> string
(** The library's name, as given to {!of_program}. *)

val insn_count : t -> int

val insn_at : t -> int -> (Ndroid_arm.Insn.t * int) option
(** Decoded instruction and its byte size at an address; [None] for data
    or out-of-image addresses. *)

val contains : t -> int -> bool
(** Is the (thumb-bit-cleared) address inside the image? *)

val symbols : t -> (string * int) list
val symbol_addr : t -> string -> int option

val enclosing_symbol : t -> int -> string option
(** Nearest symbol at or before the address — the "current function" for
    flow reports. *)

val cstring_at : t -> int -> string option
(** NUL-terminated string read from the image, for resolving
    [FindClass]/[GetStaticMethodID] arguments constant-propagated to a
    data address. *)

val branch_target : t -> addr:int -> size:int -> offset:int -> int
(** Resolve a [B]-family offset (in instruction units relative to the
    mode's read-PC) to an absolute address. *)

val basic_blocks : t -> (int * int * int list) list
(** Recovered blocks as [(start, end_exclusive, successor starts)]; block
    leaders are exported symbols and branch targets. *)
