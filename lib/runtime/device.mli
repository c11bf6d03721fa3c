(** The simulated Android device: one Dalvik VM, one ARM machine, the JNI
    boundary between them, and the framework (sources, sinks, libc, libm).

    Architecturally this is the box NDroid instruments (paper, Fig. 4): the
    app's Java code runs in {!Ndroid_dalvik.Interp}, its native libraries
    run on {!Ndroid_emulator.Machine}, and every crossing goes through the
    call bridge here — [dvmCallJNIMethod] downward, [Call*Method*] →
    [dvmCallMethod*] → [dvmInterpret] upward — with events emitted at each
    hop so the analyses can hook them by address, exactly as NDroid hooks
    the real functions by their offsets in libdvm.so (Sec. V-G).

    Analyses plug in through two policy points, both cleared by default
    (the vanilla configuration):
    - {!val-jni_return_policy}: what taint the JNI call bridge gives a native
      method's return value (TaintDroid: union of parameter taints);
    - {!val-native_taint_source}: what taint attaches to data entering Java
      from the native context (NDroid: its taint map / shadow registers;
      TaintDroid: none — which is precisely why it misses cases 1', 3
      and 4). *)

module Vm = Ndroid_dalvik.Vm
module Classes = Ndroid_dalvik.Classes
module Machine = Ndroid_emulator.Machine
module Taint = Ndroid_taint.Taint

(** Where a piece of native data lives, for taint queries. *)
type taint_loc =
  | Loc_mem of int * int  (** guest address, length *)
  | Loc_reg of int  (** CPU register index *)
  | Loc_iref of int  (** indirect reference to a Java object *)

(** One Java→native crossing, as captured when [dvmCallJNIMethod] is
    hooked: the paper's SourcePolicy is built from exactly this record
    (method address, per-slot taints, stack argument count, shorty,
    access flag — Listing 1). *)
type jni_call = {
  jc_method : Classes.method_def;
  jc_addr : int;  (** first instruction of the native method (even address) *)
  jc_entry : int;  (** call target: [jc_addr], plus the Thumb bit if set *)
  jc_args : Vm.tval array;  (** Java-side argument values and taints *)
  jc_slots : (int * Taint.t) array;
      (** marshaled AAPCS slots: slot 0..3 → r0..r3, the rest on stack *)
}

type t

val create : ?profile:Ndroid_android.Device_profile.t -> unit -> t
(** Boot a device: fresh VM with framework + sources + sinks installed,
    fresh machine with libc/libm/libdvm mounted. *)

(** {1 The host-function layout} *)

val host_fn_addr : string -> int option
(** Guest address of a libdvm, libc or libm function, the same on every
    device: apps' native libraries link against it without booting one. *)

val host_row : int -> Ndroid_jni.Jni_names.row option
(** The catalogue row of the function mounted at an address (a Thumb bit
    is ignored): what the hook engines dispatch on, and the static
    analyzer's resolver for calls out of a native library. *)

(** {1 Components} *)

val vm : t -> Vm.t
val machine : t -> Machine.t
val fs : t -> Ndroid_android.Filesystem.t
val net : t -> Ndroid_android.Network.t
val native_heap : t -> Ndroid_android.Native_heap.t
val monitor : t -> Ndroid_android.Sink_monitor.t
val libc_ctx : t -> Ndroid_android.Libc_model.ctx

(** {1 Observability} *)

val set_obs : t -> Ndroid_obs.Ring.t -> unit
(** Observe the whole device through [ring]: JNI crossings and GC from
    here, method spans from the Dalvik interpreter (which shares the
    hub), and — when the ring's [tracing] gate is up — native
    instructions and host boundaries from the machine.  Call once per
    device. *)

(** {1 App loading} *)

val install_classes : t -> Classes.class_def list -> unit

val provide_library : t -> string -> Ndroid_arm.Asm.program -> unit
(** Make a native library available under a name; loaded into guest memory
    when Java calls [System.loadLibrary(name)] — or immediately via
    {!load_library}. *)

val load_library : t -> string -> unit
(** Load a provided library now (maps it and registers its symbols).
    @raise Not_found if never provided. *)

(** {1 Running the app} *)

val run : t -> string -> string -> Vm.tval array -> Vm.tval
(** [run device cls method args] invokes a Java method, catching nothing:
    [Vm.Java_throw] escapes to the caller as on a real device crash. *)

(** {1 Analysis plug points} *)

val set_use_summaries : t -> bool -> unit
(** Let the JNI bridge apply cached native taint summaries instead of
    emulating exact function bodies (off by default: the emulated path is
    the reference semantics). *)

val set_summary_taint : t -> (int -> (int * int) array -> unit) -> unit
(** Install the taint side of summary application: called with the entry
    address and the summary's (rd, entry-dependence mask) pairs before the
    value replay.  The attach layer implements source-policy mimicry plus
    {!Ndroid_summary.Summary.apply_masks} here; without an attached
    analysis it stays a no-op. *)

val summaries_applied : t -> int
(** JNI calls answered from a summary instead of emulation. *)

val summaries_rejected : t -> int
(** JNI calls that wanted the summary path but fell back to emulation
    (inexact body, dirty library, or stack-borne arguments). *)

val jni_return_policy : t -> (jni_call -> r0:int -> r1:int -> Taint.t) ref
val native_taint_source : t -> (taint_loc -> Taint.t) ref
val current_jni_call : t -> jni_call option
(** The crossing being bridged right now (set around [dvmCallJNIMethod]). *)

val pending_interp_args : t -> (Vm.tval array * Classes.method_def) option
(** While a native→Java call is being bridged: the frame about to be
    interpreted, visible to the [dvmInterpret] hook (Fig. 9's log). *)

(** {1 Handle resolution for hook engines} *)

val field_taint : t -> obj_iref:int -> fid:int -> Taint.t
(** Taint of the field a [Get*Field] call is about to read — NDroid's
    field-access hook queries this "after executing Get*Field functions"
    (paper, Sec. V-B / Table IV).  [obj_iref] is ignored for static
    fields. *)

val add_field_taint : t -> obj_iref:int -> fid:int -> Taint.t -> unit
(** Union taint onto the field a [Set*Field] call targets. *)

val object_taint : t -> iref:int -> Taint.t
(** TaintDroid-format taint of the object behind an indirect reference
    (the array/string/object tag in the heap). *)

val add_object_taint : t -> iref:int -> Taint.t -> unit
(** Union taint onto the object behind an indirect reference.  Keyed by
    indirect reference, so it survives GC moves (paper, Sec. V-B). *)

val object_addr : t -> iref:int -> int option
(** Current direct pointer of the object behind an indirect reference —
    the "realStringAddr" NDroid logs (Fig. 6).  Changes on {!gc}. *)

val array_length : t -> iref:int -> int option
(** Element count when the reference is an array (string length for
    strings), for the [Get*ArrayElements] hooks. *)

(** {1 GC} *)

val gc : t -> unit
(** Compact the Java heap: every direct pointer changes, the indirect
    reference table stays valid (paper, Sec. II-A). *)
