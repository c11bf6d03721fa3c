(** Backward slicing over the cross-language IR.

    The slice is forward reachability from sources intersected with
    backward reachability from sinks; {!focus} projects it onto the exact
    Dalvik methods, native exported functions and JNI crossings the
    dynamic tracker must instrument.  {!annotate} attaches each flow's
    source→…→sink hop chain as static provenance. *)

type t

val compute : Xir.t -> t

val focus : t -> Ndroid_report.Focus.t
(** The slice's projection: methods, natives and crossings on a feasible
    source→sink path. *)

val full : Xir.t -> Ndroid_report.Focus.t
(** Every method/native/crossing in the graph — the sound fallback when a
    flagged flow has no graph path (e.g. a purely control-dependent
    flow). *)

val annotate :
  t -> Ndroid_report.Flow.t list -> Ndroid_report.Flow.t list * bool
(** Attach hop chains to every flow lacking them.  The boolean is [true]
    iff every flow found a path — when [false] the caller should fall back
    to {!full} focus. *)
