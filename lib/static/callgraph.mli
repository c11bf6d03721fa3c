(** Interprocedural call graph over an app's class definitions.

    Nodes are [(class, method)] pairs of bytecode methods; edges come from
    [Invoke] instructions that resolve to app-defined methods.  The graph
    also indexes the cross-boundary call sites the supergraph stitches
    together: JNI (native-method) call sites, [System.load*] sites, and
    framework source/sink call sites. *)

type node = string * string

type t

val source_tag : string -> string -> Ndroid_taint.Taint.t option
(** The catalogued source tag of a [(class, method)] call, if any. *)

val is_sink : string -> string -> bool
(** Is [(class, method)] a catalogued Java-context sink? *)

val is_load_call : string -> string -> bool
(** [System.loadLibrary] or [System.load].  These three classify every
    invoke the same way for the call graph, {!Dex_flow}, {!Xir_build} and
    the analyzer's upcalls. *)

val build : Ndroid_dalvik.Classes.class_def list -> t

val methods : t -> (node, Ndroid_dalvik.Classes.method_def) Hashtbl.t
(** Every app-defined method (any body kind), by (class, name). *)

val find_method : t -> node -> Ndroid_dalvik.Classes.method_def option

val callees : t -> node -> node list
(** App-internal edges out of a bytecode method. *)

val reachable : t -> node list -> node list
(** Transitive closure over app-internal edges from the given roots. *)

val native_sites : t -> (node * string) list
(** (caller, native symbol) for every call site whose callee is a
    [Native] method. *)

val load_sites : t -> node list
(** Methods containing a [System.loadLibrary]/[System.load] call. *)

val source_sites : t -> (node * Ndroid_taint.Taint.t) list
(** Call sites of catalogued privacy sources, with their taint tag. *)

val sink_sites : t -> (node * string) list
(** Call sites of catalogued Java-context sinks, with the sink name. *)

val calls_load : t -> bool
val jni_site_count : t -> int
