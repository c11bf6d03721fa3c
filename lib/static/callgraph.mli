(** The app's method table and the invoke classification shared by the
    static passes.

    [build] indexes every app-defined method by [(class, name)] and scans
    each bytecode body's invokes once, for the two facts the verdict
    reports: whether any method calls [System.load*], and how many call
    sites enter a [native] method.  {!Dex_flow} follows invokes through
    the method table itself. *)

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

val calls_load : t -> bool
(** Does some method call [System.loadLibrary]/[System.load]? *)

val jni_site_count : t -> int
(** Call sites whose callee is an app [native] method. *)
