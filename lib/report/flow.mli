(** One source→sink information flow, shared by both analyses.

    The static supergraph analyzer and the dynamic sink monitor used to
    report flows with two unrelated record types; this is the single shape
    both now produce.  Field names keep the static analyzer's [f_]
    convention so [Ndroid_static.Flow] can re-export this type verbatim.

    A flow may carry a provenance chain: ordered hops from the source,
    through Dalvik registers and the JNI crossing, along native taint
    assignments, down to the sink — reconstructed from the observability
    event stream.  Hops are evidence, not identity: {!key}, {!compare} and
    {!equal} ignore them so static and dynamic reports of the same leak
    still deduplicate. *)

module Taint = Ndroid_taint.Taint

type context = Java_ctx | Native_ctx

type hop = {
  h_kind : string;  (** ["source"], ["dalvik"], ["jni"], ["native"], ["sink"] *)
  h_site : string;  (** human-readable location / value at that hop *)
}

type t = {
  f_taint : Taint.t;  (** categories that reached the sink *)
  f_sink : string;  (** short sink name, e.g. ["send"] *)
  f_context : context;  (** which side of the JNI boundary leaked *)
  f_site : string;  (** call site / destination detail *)
  f_hops : hop list;  (** source→sink provenance chain; [[]] if unknown *)
}

val pp : Format.formatter -> t -> unit

val key : t -> string * string * string * int
(** Deduplication key (sink, context, site, taint bits); ignores hops. *)

val compare : t -> t -> int
(** Total order used for the canonical flow ordering in reports. *)

val equal : t -> t -> bool

val to_json : t -> Json.t
(** Emits a ["provenance"] array when [f_hops] is non-empty. *)

val of_json : Json.t -> (t, string) result
(** A missing ["provenance"] field decodes as [f_hops = []], so reports
    written before provenance existed still load. *)
