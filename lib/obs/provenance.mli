(** Taint provenance: reconstruct the source→sink hop chain for a flagged
    flow from the observability event stream.

    The chain is staged — source, Dalvik argument registers, JNI
    crossings, native locations, sink — with only events whose taint
    overlaps the flow's contributing, each stage deduplicated and capped
    so chains stay readable.  The terminal sink hop is synthesized from
    the flow itself (Java-context sinks decide without emitting events),
    so any flow with non-zero taint gets at least [source? ... sink]. *)

val attach : Ring.t -> Ndroid_report.Flow.t -> Ndroid_report.Flow.t
(** Fill [f_hops] from the ring; leaves already-populated chains alone. *)
