open App_model
module Dexfile = Ndroid_dalvik.Dexfile
module Classes = Ndroid_dalvik.Classes
module B = Ndroid_dalvik.Bytecode

type classification =
  | Type_I
  | Type_II of { loadable_via_embedded_dex : bool }
  | Type_III
  | Not_native

(* the symbolic and binary verdicts share one core over "does the main dex
   call load?" / "does an embedded dex?" / "are libs packaged?" so the two
   entry points cannot drift *)
let classify_shape ~main_calls_load ~embedded_calls_load ~has_libs =
  match main_calls_load with
  | None -> if has_libs then Type_III else Not_native
  | Some true -> Type_I
  | Some false ->
    if has_libs then Type_II { loadable_via_embedded_dex = embedded_calls_load }
    else Not_native

let classify app =
  classify_shape
    ~main_calls_load:(Option.map dex_calls_load app.main_dex)
    ~embedded_calls_load:(List.exists dex_calls_load app.embedded_dexes)
    ~has_libs:(app.libs <> [])

(* ---- binary-dex scanning ---- *)

let insn_is_load_call = function
  | B.Invoke (_, { B.m_class = "Ljava/lang/System;"; m_name }, _) ->
    m_name = "loadLibrary" || m_name = "load"
  | _ -> false

let dex_bytes_call_load image =
  let classes = Dexfile.of_string image in
  List.exists
    (fun (c : Classes.class_def) ->
      List.exists
        (fun (m : Classes.method_def) ->
          match m.Classes.m_body with
          | Classes.Bytecode (code, _) -> Array.exists insn_is_load_call code
          | Classes.Native _ | Classes.Intrinsic _ -> false)
        c.Classes.c_methods)
    classes

let classify_dex_bytes ~main_dex ~embedded_dexes ~has_libs =
  classify_shape
    ~main_calls_load:(Option.map dex_bytes_call_load main_dex)
    ~embedded_calls_load:(List.exists dex_bytes_call_load embedded_dexes)
    ~has_libs

let classification_name = function
  | Type_I -> "Type I"
  | Type_II { loadable_via_embedded_dex = true } -> "Type II (loadable)"
  | Type_II _ -> "Type II"
  | Type_III -> "Type III"
  | Not_native -> "not native"
