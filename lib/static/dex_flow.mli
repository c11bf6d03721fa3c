(** Flow-sensitive abstract taint interpretation of Dalvik bytecode.

    A worklist pass over each method's {!Dex_cfg}, with one abstract taint
    per register plus the interpreter's result register, a per-path
    control taint (implicit flows through tainted comparisons and
    switches), and monotone summaries for fields, arrays and the pending
    exception.  Interprocedural edges follow the {!Callgraph}: app
    bytecode methods are analyzed transitively (memoized per argument
    taint), catalogued framework sources return their tag, catalogued
    sinks report a {!Flow.t}, and [native] methods cross the JNI boundary
    through the supplied callback — the supergraph's Java→native edge. *)

module Taint = Ndroid_taint.Taint

type ctx

val make :
  cg:Callgraph.t ->
  record:(Flow.t -> unit) ->
  native_call:(Ndroid_dalvik.Classes.method_def -> Taint.t list ->
               ctrl:Taint.t -> Taint.t) ->
  ctx

val analyze_method :
  ctx -> Ndroid_dalvik.Classes.method_def -> Taint.t list -> Taint.t
(** Analyze one method with the given parameter taints (parameters land
    in the highest registers, as in the interpreter); returns the joined
    taint of all returned values. *)

val reset_memo : ctx -> unit
(** Clear per-round memoization (the analyzer calls this between outer
    fixpoint rounds, since heap summaries may have grown). *)

val changed : ctx -> bool
val clear_changed : ctx -> unit
(** Did any monotone summary (field/array/exception) grow since the last
    {!clear_changed}? *)

val short_sink_name : string -> string -> string
(** ["Ljava/net/Socket;" "send" → "Socket.send"] — the dynamic sink
    monitors' naming, so static and dynamic verdicts align. *)
