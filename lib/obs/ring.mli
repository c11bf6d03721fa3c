(** The observability hub: a fixed-capacity ring of preallocated
    {!Event.record}s plus a {!Metrics} registry and two gates.

    Emitters rewrite the next preallocated cell in place — no allocation,
    no closures — so a hot loop can keep an emit call compiled in
    unconditionally:

    - [on = false] (the shared {!disabled} instance) reduces every emitter
      to a load and a branch;
    - [tracing] additionally gates the torrential kinds ({!emit_insn});
      provenance-grade events (sources, taint assignments, JNI crossings,
      sinks) are cheap enough to record whenever [on].

    One ring instance typically backs a whole analysis: the flow log, the
    taint provenance reconstruction and the exported traces all read the
    same event stream. *)

type t = {
  cells : Event.record array;
  cap : int;
  mutable next : int;
  mutable total : int;  (** events ever emitted (wraparound included) *)
  mutable lines : int;  (** renderable (flow-log) events ever emitted *)
  mutable overwritten : int;  (** events lost to wraparound, ring lifetime *)
  mutable on : bool;
  mutable tracing : bool;
  metrics : Metrics.t;
}

val create : ?capacity:int -> ?tracing:bool -> unit -> t
(** [capacity] defaults to 16384 events; [tracing] to [false]. *)

val disabled : t
(** Shared never-recording instance — the default hub everywhere. *)

val on : t -> bool
val tracing : t -> bool
val set_tracing : t -> bool -> unit
val metrics : t -> Metrics.t
val capacity : t -> int
val total : t -> int
val lines : t -> int
val size : t -> int
(** Events currently held: [min total capacity]. *)

val overwritten : t -> int
(** Monotonic count of events lost to wraparound over the ring's whole
    life — {!clear} does not reset it, so a per-task engine's provenance
    gaps stay attributable in the merged sweep metrics. *)

val clear : t -> unit

(** {1 Emitters} — no-ops unless [on] ([emit_insn]: unless [tracing]). *)

val emit_log : t -> string -> unit

val logf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Format a flow-log line (the paper's Figs. 6-9 vocabulary) and
    {!emit_log} it. *)

val emit_invoke : t -> string -> unit
val emit_return : t -> string -> unit
val emit_jni_begin : t -> name:string -> direction:string -> taint:int -> unit
val emit_jni_end : t -> name:string -> direction:string -> taint:int -> unit
val emit_jni_ret : t -> name:string -> taint:int -> unit
val emit_source : t -> name:string -> cls:string -> addr:int -> taint:int -> unit
val emit_policy_apply : t -> addr:int -> unit
val emit_arg_taint : t -> idx:int -> value:string -> taint:int -> unit
val emit_taint_reg : t -> reg:int -> taint:int -> unit
val emit_taint_mem : t -> addr:int -> taint:int -> unit
val emit_sink_begin : t -> sink:string -> unit
val emit_sink : t -> sink:string -> detail:string -> taint:int -> unit
val emit_sink_end : t -> sink:string -> unit
val emit_gc_begin : t -> unit
val emit_gc_end : t -> unit
val emit_insn : t -> addr:int -> Ndroid_arm.Insn.t -> unit
val emit_host_enter : t -> string -> unit
val emit_host_leave : t -> string -> unit

val emit_sb_compile : t -> addr:int -> insns:int -> unit
(** A superblock was translated at [addr] covering [insns] instructions. *)

val emit_summary_apply : t -> name:string -> taint:int -> unit
(** A cached native taint summary was applied in place of emulating the
    function body ([name] = native method, [taint] = resulting return
    taint bits). *)

(** {1 Reading} *)

val iter : t -> (Event.record -> unit) -> unit
(** Oldest first over the live window.  The callback receives the live
    mutable cells — read, don't retain. *)

val fold : ('a -> Event.record -> 'a) -> 'a -> t -> 'a
