(** Focus set: the static slice's hand-off to the dynamic tracker.

    A focus set names the exact Dalvik methods, native exported functions,
    and JNI crossings on some feasible source→sink path.  The hybrid
    pipeline computes one statically ([Ndroid_static.Slice]) and threads it
    into [Ndroid_core.Ndroid.attach ~focus], which keeps taint tracking off
    until control enters a focused method or native function. *)

type t = {
  methods : string list;  (** qualified ["Lcls;->name"] Dalvik methods *)
  natives : string list;  (** exported native function symbols *)
  crossings : string list;  (** JNI crossing labels *)
}

val empty : t
val is_empty : t -> bool

val make :
  methods:string list -> natives:string list -> crossings:string list -> t
(** Deduplicates each component, preserving first-seen order. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
