(** A dex-like container for class definitions.

    Apps ship their Java side as [classes.dex]; here a list of
    {!Classes.class_def} serializes to a compact binary image — magic,
    string pool, class table, method bodies with one opcode byte per
    instruction — and parses back to structurally identical definitions.
    The corpus's Type II "hidden dex" apps are exactly files of this kind
    sitting inside an APK, and {!of_string} is what "dynamically loading a
    dex file" reads. *)

exception Bad_dex of string

val to_string : Classes.class_def list -> string
val of_string : string -> Classes.class_def list
(** @raise Bad_dex on corrupt input. *)
