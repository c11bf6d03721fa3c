(** The canonical registry of bundled scenario apps — every Table-I case,
    case study, polymorphic variant, Sec.-VI batch app, the control-flow
    evasion app and the input-gated demo, deduplicated by name.  The CLI,
    the experiment harness and the analysis pipeline all resolve app names
    against this one list. *)

val all : Harness.app list
val names : string list
val find : string -> Harness.app option
