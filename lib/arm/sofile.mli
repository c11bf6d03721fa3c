(** A shared-library container for assembled programs.

    On Android the app's native code ships as ELF [.so] files inside the
    APK; here an assembled {!Asm.program} serializes to a small ELF-like
    container — magic, mode, base address, code image, symbol table — that
    can sit in the virtual filesystem and be loaded back bit-for-bit.  This
    is what a Type II app's "bundled library" physically is in our corpus
    story, and what [System.loadLibrary] conceptually maps in. *)

exception Bad_sofile of string

val to_string : Asm.program -> string
(** Serialize. *)

val of_string : string -> Asm.program
(** Parse. @raise Bad_sofile on a corrupt or truncated image. *)
