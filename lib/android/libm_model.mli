(** Modeled math library (Table VI's libm column).

    Soft-float AAPCS: doubles are passed and returned in register pairs
    (r0:r1, r2:r3), single-precision floats in single registers.  Each
    handler reads its arguments as raw IEEE bits from core registers,
    computes on the host, and writes the result bits back — which is also
    why NDroid's taint summary for these functions is simply
    "result taint = union of argument-register taints". *)

module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory

val functions : (Ndroid_jni.Jni_names.row * (Cpu.t -> Memory.t -> unit)) list
(** All 26 modeled libm entries ([strtod]/[strtol] included) as catalogue
    rows and handlers, in mount order.  A math function's row gives the
    arity and precision its taint summary reads. *)
