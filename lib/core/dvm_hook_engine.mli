(** The DVM hook engine: NDroid's five hook groups (paper, Sec. V-B).

    1. {b JNI entry} — hooks [dvmCallJNIMethod] to build a {!Source_policy}
       and applies it when the native method's first instruction executes.
    2. {b JNI exit} — hooks the [Call*Method*] families (Table II): argument
       taints flow into the frame [dvmInterpret] is about to run (through
       the device's [native_taint_source] query), and the Java return
       value's taint flows back into shadow r0/r1.
    3. {b Object creation} — hooks the NOF/MAF pairs of Table III:
       [NewStringUTF] propagates the C buffer's byte taints onto the new
       String object (keyed by indirect reference, so GC moves are safe).
    4. {b Field access} — hooks Table IV's [Get/Set*Field].
    5. {b Exception} — [ThrowNew]'s message taint lands on the exception
       object (the device performs the write; we log it).

    The engine also runs the multilevel-hooking tracker (Fig. 5) over the
    branch stream, and — in the always-hook ablation — instruments every
    [dvmInterpret] entry instead. *)

type t

val attach :
  ?use_multilevel:bool ->
  ?gate:(unit -> bool) ->
  Ndroid_runtime.Device.t ->
  Ndroid_emulator.Taint_engine.t ->
  Flow_log.t ->
  t
(** Wire the engine into the device's machine.  [use_multilevel] defaults
    to [true]; [false] is ablation A2 (instrument every interpreter
    entry).  [gate] (default: always on) is the focused-execution switch:
    while it returns [false] the listener ignores every machine event, so
    code outside the static focus set runs uninstrumented. *)

val policies : t -> Source_policy.Table.t
val on_jni_enter : t -> unit
(** Run the JNI-entry hook (SourcePolicy construction + registration) for
    the device's in-flight JNI call.  Fired by the [dvmCallJNIMethod] hook
    on the emulated path; the summary fast path calls it directly since it
    never enters the bridge. *)

val on_insn : t -> addr:int -> unit
(** Apply the source policy registered at [addr], if any.  The engine
    installs no instruction hook of its own: {!Ndroid.attach} calls this
    from its single instruction hook on the tracing path, and from the
    block-entry hook on the superblock path. *)

val policies_applied : t -> int
(** How many times a SourcePolicy initialised a native frame. *)

val multilevel_checks : t -> int
(** Branch events the multilevel tracker inspected. *)

val multilevel_level : t -> int
(** Current chain depth (for tests). *)

val always_hook_scans : t -> int
(** dvmInterpret-entry scans performed in always-hook mode. *)
