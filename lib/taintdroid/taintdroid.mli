(** The TaintDroid baseline configuration.

    TaintDroid is built into the Dalvik interpreter (register, field, array
    and string taint tags — see {!Ndroid_dalvik.Interp}); this module merely
    switches it on and installs TaintDroid's one rule at the JNI boundary:
    "when a native method is called, TaintDroid adopts the taint propagation
    policy that the return value will be tainted if any parameter is
    tainted" (paper, Sec. II-B).

    What it deliberately does {e not} do is the point of the paper:
    - it never taints data a native method writes back through JNI
      callbacks, new objects, fields, or exceptions (cases 1', 3);
    - it has no native-context sinks (case 2) and no native-context sources
      (cases 3, 4). *)

val attach : Ndroid_runtime.Device.t -> unit
(** Enable DVM taint tracking and install the JNI return policy. *)

val return_policy :
  Ndroid_runtime.Device.jni_call -> r0:int -> r1:int -> Ndroid_taint.Taint.t
(** The black-box rule itself, exported for NDroid to compose with. *)

val vanilla : Ndroid_runtime.Device.t -> unit
(** Force the vanilla configuration: taint tracking off, policies clear,
    no listeners (the Fig. 10 baseline). *)
