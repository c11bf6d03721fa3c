(** SourcePolicy: the record NDroid builds when tainted data is about to
    enter a native method (paper, Listing 1 and Sec. V-B "JNI Entry").

    Step 1 — hooking [dvmCallJNIMethod] — creates and populates the policy:
    the native method's first-instruction address, the taints of the first
    four parameters (registers r0-r3), the number and taints of the stack
    parameters, the method shorty, and the access flag.  Policies live in a
    hash map keyed by the method address.

    Step 2 happens "right before the native method executes": when the
    instruction tracer sees the first instruction at a policy's address, the
    policy's handler initialises the shadow registers and the stack
    memory's taint map accordingly. *)

module Taint = Ndroid_taint.Taint

type t = {
  method_address : int;
  t_r0 : Taint.t;
  t_r1 : Taint.t;
  t_r2 : Taint.t;
  t_r3 : Taint.t;
  stack_args_num : int;
  stack_args_taints : Taint.t array;
  method_shorty : string;
  access_flag : int;  (** 0x8 = ACC_STATIC, 0x1 = ACC_PUBLIC *)
  method_name : string;
  class_name : string;
}

val of_jni_call : Ndroid_runtime.Device.jni_call -> t
(** Build from the bridge's captured crossing. *)

val apply : t -> Ndroid_emulator.Taint_engine.t -> Ndroid_arm.Cpu.t -> unit
(** The policy handler: write r0-r3 taints into the shadow registers and
    the stack-argument taints into the taint map at the current SP. *)

val any_tainted : t -> bool

(** The [<addr, SourcePolicy>] hash map. *)
module Table : sig
  type policy = t
  type t

  val create : unit -> t
  val add : t -> policy -> unit
  val find : t -> int -> policy option
  val mem : t -> int -> bool
  val size : t -> int
end
