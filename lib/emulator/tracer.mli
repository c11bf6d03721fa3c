(** Instruction tracer: the filtered, per-instruction stream.

    "By instrumenting third-party native libraries, the instruction tracer
    monitors each ARM/Thumb instruction to determine how the taint
    propagates" (paper, Sec. V-C).  The tracer admits only the third-party
    app library, never the system libraries (whose effects are modeled as
    summaries instead), and counts what it admits and what it filters
    out. *)

type t

val create : unit -> t
(** A tracer for the caller's instruction hook ({!Machine.add_insn_hook}),
    which asks {!admit} about each address. *)

val admit : t -> int -> bool
(** [admit t addr] is [Layout.in_app_lib addr], counting the address as
    traced or skipped. *)

val traced : t -> int
(** Instructions that passed the filter. *)

val skipped : t -> int
(** Instructions filtered out. *)
