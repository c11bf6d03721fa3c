(** dexdump-style listings of loaded classes.

    The Sec. III study "extracted the Java classes containing native method
    declarations" from dex files; this is the inspection tool for our
    class definitions: class layout (fields, superclass), method headers
    (shorty, access, body kind) and bytecode listings with branch targets. *)

val pp_classes : Format.formatter -> Classes.class_def list -> unit

val native_methods : Classes.class_def list -> (string * string * string) list
(** (class, method, native symbol) of every native declaration — what the
    study's scanner extracts. *)
