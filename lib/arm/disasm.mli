(** Disassembler.

    NDroid's authors "manually disassemble libdvm.so, libc.so, libm.so, etc.
    and determine the offsets of these functions" (paper, Sec. V-G); this is
    the corresponding tool for the simulated libraries: raw bytes back to
    the instruction AST, with symbol annotations when a program's label
    table is available. *)

type line = {
  l_addr : int;
  l_raw : int;  (** the encoded word (ARM) or halfword(s) (Thumb) *)
  l_size : int;
  l_insn : Insn.t option;  (** [None] for data / undecodable bytes *)
  l_label : string option;  (** symbol defined at this address *)
}

val program : Asm.program -> line list
(** Disassemble an assembled program with its own symbols. *)

val pp_listing : Format.formatter -> line list -> unit
