(** Lowering the per-language analyses into one {!Xir} graph.

    The Java side is rebuilt from the dex CFGs' reaching definitions
    (invokes classified by the {!Callgraph} predicates {!Dex_flow} uses);
    the native side replays cross-boundary [facts] the analyzer recorded
    while its abstract interpretation ran — which exported function
    upcalled what, and which reached a host sink. *)

type facts

val facts_create : unit -> facts

val record_upcall :
  facts -> lib:string -> entry:string -> cls:string -> m:string -> unit
(** A native [Call*Method] upcall into an app bytecode method. *)

val record_upcall_source :
  facts -> lib:string -> entry:string -> cls:string -> m:string -> unit
(** An upcall that resolved to a catalogued privacy source. *)

val record_upcall_sink :
  facts -> lib:string -> entry:string -> sink:string -> site:string -> unit
(** An upcall that resolved to a catalogued sink ([sink]/[site] exactly as
    the recorded {!Flow.t} spells them). *)

val record_native_sink :
  facts -> lib:string -> entry:string -> sym:string -> sink:string -> unit
(** A host-function sink reached inside native code; [sym] is the
    enclosing symbol (the flow's site), [entry] the exported function the
    crossing entered through. *)

val build :
  cg:Callgraph.t ->
  bind:(string -> string option) ->
  libs:(string * string list) list ->
  facts:facts ->
  Xir.t
(** Build the graph: [cg] supplies the Java side, [bind] maps a native
    symbol to its library, [libs] lists each library's exported symbols
    (for [System.load*] → [JNI_OnLoad] edges), [facts] the recorded
    native-side facts. *)
