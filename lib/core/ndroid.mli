(** NDroid: the complete analysis (paper, Fig. 4).

    Attaching composes, over one {!Ndroid_runtime.Device}:
    - TaintDroid in the DVM (NDroid "employs it to run apps and track
      information flow in the Java context", Sec. VI);
    - the {!Dvm_hook_engine} (five JNI hook groups + multilevel hooking);
    - the {!Syslib_hook_engine} (Table VI summaries, Table VII sinks);
    - the instruction tracer running {!Ndroid_emulator.Insn_taint}
      (Table V) over third-party native code only;
    - the {!Ndroid_emulator.Taint_engine} (shadow registers +
      byte-granularity taint map);
    and installs the two device policies: data entering Java from native
    carries the engine's taint, and a native method's return value carries
    the union of TaintDroid's black-box rule and the tracked taint of
    r0/r1 (plus the returned object's tag). *)

type t

type stats = {
  source_policies : int;  (** SourcePolicy records created *)
  policies_applied : int;
  traced_instructions : int;
  skipped_instructions : int;  (** filtered out (system libs etc.) *)
  summaries_applied : int;
  sink_checks : int;
  multilevel_checks : int;
  tainted_bytes : int;  (** bytes currently tainted in the native map *)
  sb_compiles : int;  (** superblocks translated *)
  sb_hits : int;  (** superblock cache hits (probe or chain) *)
  sb_invalidations : int;  (** stale superblocks retranslated *)
  native_summaries_applied : int;
      (** JNI calls answered from a native taint summary *)
  native_summaries_rejected : int;
      (** JNI calls that fell back from the summary path to emulation *)
  focused_methods : int;
      (** focus-set method/native entries observed (0 without [?focus]) *)
  skipped_bytecodes : int;
      (** bytecodes interpreted before tracking activated — the focused
          run's savings (0 without [?focus]) *)
}

val attach :
  ?use_multilevel:bool ->
  ?use_superblocks:bool ->
  ?use_summaries:bool ->
  ?trace_filter:(int -> bool) ->
  ?obs:Ndroid_obs.Ring.t ->
  ?focus:Ndroid_report.Focus.t ->
  Ndroid_runtime.Device.t ->
  t
(** Instrument a device.  [use_multilevel:false] is ablation A2;
    [use_superblocks] (default [false]) switches native execution to
    pre-decoded superblocks with fused taint transfers — per-instruction
    hooks stop firing, so leave it off when per-insn tracing matters;
    [use_summaries] (default [false]) lets the JNI bridge apply
    digest-cached native taint summaries instead of emulating exact
    function bodies; [trace_filter] overrides which addresses the
    instruction tracer covers (default: the third-party app library region
    only); [obs] supplies the observability hub backing the flow log, the
    device's event stream and provenance reconstruction (default: a fresh
    ring); [focus] (the hybrid pipeline's hand-off) starts the run with
    tracking {e off} and every hook group dormant, ratcheting full
    instrumentation on — permanently — when control first enters a method
    or native function in the set.  An empty focus disables gating. *)

val device : t -> Ndroid_runtime.Device.t
val engine : t -> Ndroid_emulator.Taint_engine.t
val log : t -> Flow_log.t
val stats : t -> stats

val leaks : t -> Ndroid_android.Sink_monitor.leak list
(** Everything the device's sink monitor has caught (Java and native
    context). *)

val flow_of_leak : Ndroid_android.Sink_monitor.leak -> Ndroid_report.Flow.t
(** Map one sink-monitor leak onto the unified flow shape ([f_site] is the
    leak's destination detail). *)

val verdict : t -> Ndroid_report.Verdict.t
(** The dynamic run's unified verdict: [Flagged] with one flow per tainted
    leak (deduplicated, sorted), else [Clean].  Same type, same JSON codec
    as the static analyzer's result. *)

val pp_stats : Format.formatter -> stats -> unit
