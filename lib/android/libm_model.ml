module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module J = Ndroid_jni.Jni_names

let mask32 = 0xFFFFFFFF

let get_double cpu i =
  let lo = Int64.of_int (Cpu.reg cpu i)
  and hi = Int64.of_int (Cpu.reg cpu (i + 1)) in
  Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32))

let set_double cpu i f =
  let bits = Int64.bits_of_float f in
  Cpu.set_reg cpu i (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  Cpu.set_reg cpu (i + 1) (Int64.to_int (Int64.shift_right_logical bits 32))

let get_float cpu i = Int32.float_of_bits (Int32.of_int (Cpu.reg cpu i))

let set_float cpu i f =
  Cpu.set_reg cpu i (Int32.to_int (Int32.bits_of_float f) land mask32)

let math arity single name =
  { (J.syslib J.Libm J.Stores_args name) with J.shape = J.Math { arity; single } }

let unary_d name op =
  ( math 1 false name,
    fun cpu (_ : Memory.t) -> set_double cpu 0 (op (get_double cpu 0)) )

let binary_d name op =
  ( math 2 false name,
    fun cpu (_ : Memory.t) ->
      set_double cpu 0 (op (get_double cpu 0) (get_double cpu 2)) )

let unary_f name op =
  ( math 1 true name,
    fun cpu (_ : Memory.t) -> set_float cpu 0 (op (get_float cpu 0)) )

let binary_f name op =
  ( math 2 true name,
    fun cpu (_ : Memory.t) -> set_float cpu 0 (op (get_float cpu 0) (get_float cpu 1))
  )

let fn_strtod =
  ( J.syslib J.Libm J.Stores_args "strtod",
    fun cpu mem ->
      let s = Memory.read_cstring mem (Cpu.reg cpu 0) in
      let v = try float_of_string (String.trim s) with Failure _ -> 0.0 in
      set_double cpu 0 v )

let fn_strtol =
  ( J.syslib J.Libm J.Stores_args "strtol",
    fun cpu mem ->
      let s = Memory.read_cstring mem (Cpu.reg cpu 0) in
      let v = try int_of_string (String.trim s) with Failure _ -> 0 in
      Cpu.set_reg cpu 0 (v land mask32) )

(* arity 1: the int exponent is not a floating-point argument *)
let fn_ldexp =
  ( math 1 false "ldexp",
    fun cpu (_ : Memory.t) ->
      (* double in r0:r1, int exponent in r2 *)
      let x = get_double cpu 0 in
      let e =
        let v = Cpu.reg cpu 2 in
        if v land 0x80000000 <> 0 then v - 0x100000000 else v
      in
      set_double cpu 0 (ldexp x e) )

let functions =
  [ unary_d "sin" sin;
    unary_d "cos" cos;
    unary_d "tan" tan;
    unary_d "sqrt" sqrt;
    unary_d "floor" floor;
    unary_d "ceil" ceil;
    unary_d "log" log;
    unary_d "log10" log10;
    unary_d "exp" exp;
    unary_d "atan" atan;
    unary_d "asin" asin;
    unary_d "acos" acos;
    unary_d "sinh" sinh;
    unary_d "cosh" cosh;
    binary_d "pow" ( ** );
    binary_d "atan2" atan2;
    binary_d "fmod" Float.rem;
    unary_f "sinf" sin;
    unary_f "cosf" cos;
    unary_f "sqrtf" sqrt;
    unary_f "expf" exp;
    binary_f "powf" ( ** );
    binary_f "atan2f" atan2;
    fn_strtod;
    fn_strtol;
    fn_ldexp ]
