(** The paper's Tables VI and VII as ordered lists (experiment E10 prints
    them).  What each function does — its handler, hook group and taint
    effect — is its catalogue row in {!Libc_model} or {!Libm_model}.

    Functions marked with [*] in the paper — [fwrite], [write], [fputc],
    [fputs], [send], [sendto] and [fprintf] — are the native-context sinks:
    "if the data carrying taint reaches calls with [*], NDroid regards it as
    a possible information leak" (Sec. V-D).  Their rows carry the sink
    mark, as does [vfprintf]'s, which both analyses report as [fprintf]. *)

val hooked : string list
(** Every Table VII entry we mount in guest libc. *)

val sinks : string list
(** The [*]-marked subset. *)

val modeled_libc : string list
(** Table VI's libc column. *)

val modeled_libm : string list
(** Table VI's libm column. *)
