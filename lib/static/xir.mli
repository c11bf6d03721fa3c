(** The unified cross-language IR (the JuCify direction).

    One SSA-ish def-use graph covering both sides of the JNI boundary:
    Java-side definition sites linked by the dex CFG's reaching
    definitions, native exported functions carrying the analyzer's
    Table-V abstract facts, and explicit crossing nodes for both
    directions of the supergraph (Java→native calls with their AAPCS
    argument mapping, native→Java [Call*Method] upcalls).  {!Slice}
    walks it backward from sinks to compute focus sets. *)

type node =
  | Method of string * string  (** Dalvik method entry: class, name *)
  | Def of string * string * int
      (** definition site: class, method, pc ([-1] = parameters) *)
  | Native of string * string  (** native function: lib, symbol *)
  | Crossing of string  (** JNI boundary crossing label *)
  | Source of string * string  (** source call site and catalog name *)
  | Sink of string * string  (** sink: flow sink name, flow site *)
  | Field of string * string  (** heap summary cell: class, field *)
  | Arrays  (** the one summary cell for all array contents *)
  | Exn  (** pending-exception summary cell *)

type edge =
  | Defuse
  | Call
  | Ret
  | Jni_down of string  (** labelled with the AAPCS argument mapping *)
  | Jni_up
  | Src
  | Snk
  | Heap
  | Load

type t

val create : unit -> t

val add_edge : t -> node -> edge -> node -> unit
(** Add (and dedup) one labelled edge; interns both endpoints. *)

val node_id : t -> node -> int option
val node_of : t -> int -> node option
val succs : t -> int -> (int * edge) list
val preds : t -> int -> (int * edge) list
val node_count : t -> int
val edge_count : t -> int
val fold_nodes : t -> (int -> node -> 'a -> 'a) -> 'a -> 'a

val select : t -> (node -> bool) -> int list
(** Ids of every node satisfying the predicate. *)
