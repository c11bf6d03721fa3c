(** Abstract interpretation of native code under Table V taint rules.

    The dynamic tracer applies Table V to concrete register values; this
    pass applies the same rules over an abstract state and *all* control
    paths at once:

    - registers carry a taint tag each, with block-local constant
      propagation just strong enough to resolve the assembler's
      load-immediate + [BLX reg] call idiom and
      [FindClass]/[GetStaticMethodID] string operands;
    - the library's writable memory is a single abstract cell [mem] that
      accumulates the taint of every store and feeds every load — a sound
      summary of the heap/stack that persists across JNI calls (so a
      string stored by one native call and fetched by another, the
      QQPhoneBook pattern, stays tainted);
    - every flag-setting instruction with tainted operands folds its taint
      into a control taint [ctrl] joined into all subsequent writes; this
      is the over-approximation of implicit flows that lets the static
      pass flag the Sec. VII control-flow-evasion app that the dynamic
      tracer misses by design;
    - a call into libdvm, libc or libm takes the taint effect of its
      catalogue row ({!Ndroid_jni.Jni_names.effect}, found through
      {!Ndroid_runtime.Device.host_row}); a sink-marked row reports a flow
      when the joined argument/memory/control taint is non-empty. *)

module Taint = Ndroid_taint.Taint

type lib = {
  nf_name : string;
  nf_cfg : Native_cfg.t;
  mutable nf_mem : Taint.t;
      (** abstract library memory, monotone across calls *)
  mutable nf_changed : bool;
      (** did [nf_mem] grow during the last entry analysis *)
}

val make_lib : name:string -> Ndroid_arm.Asm.program -> lib

type env = {
  e_upcall : string -> string -> Taint.t list -> Taint.t;
      (** [Call*Method] back-edge into Java: class, method, argument
          taints → return taint (the supergraph's native→Java edge) *)
  e_record : Flow.t -> unit;  (** sink-flow callback *)
}

val analyze_entry :
  env -> lib -> entry:int -> args:Taint.t list -> stack:Taint.t -> Taint.t
(** Analyze one native entry point: [args] are the taints of [r0..r3] at
    entry, [stack] the joined taint of any parameters passed on the
    stack.  Returns the joined taint of [r0] over all exits, and updates
    [nf_mem] with everything the call could store. *)
