module Dexfile = Ndroid_dalvik.Dexfile
module Classes = Ndroid_dalvik.Classes
module B = Ndroid_dalvik.Bytecode
module Dvalue = Ndroid_dalvik.Dvalue
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Sofile = Ndroid_arm.Sofile

type t = { apk_package : string; entries : (string * string) list }

(* turn a symbolic method-reference signature, e.g.
   "Ljava/lang/System;->loadLibrary(Ljava/lang/String;)V", into an invoke *)
let invoke_of_sig signature regs =
  match String.index_opt signature '-' with
  | Some i when i + 1 < String.length signature && signature.[i + 1] = '>' ->
    let cls = String.sub signature 0 i in
    let rest = String.sub signature (i + 2) (String.length signature - i - 2) in
    let name =
      match String.index_opt rest '(' with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    B.Invoke (B.Static, { B.m_class = cls; m_name = name }, regs)
  | _ -> B.Nop

(* does the signature's return type say it produces a value? *)
let sig_returns_value signature =
  match String.rindex_opt signature ')' with
  | Some i -> i + 1 < String.length signature && signature.[i + 1] <> 'V'
  | None -> false

(* parameter descriptors between '(' and ')', collapsed to object/primitive *)
let sig_params signature =
  match (String.index_opt signature '(', String.index_opt signature ')') with
  | Some op, Some cl when op < cl ->
    let rec go i acc =
      if i >= cl then List.rev acc
      else
        match signature.[i] with
        | 'L' -> (
          match String.index_from_opt signature i ';' with
          | Some s when s < cl -> go (s + 1) (`Obj :: acc)
          | _ -> List.rev (`Obj :: acc))
        | '[' -> (
          (* arrays are references whatever the element type *)
          let rec elem j = if j < cl && signature.[j] = '[' then elem (j + 1) else j in
          let j = elem i in
          if j < cl && signature.[j] = 'L' then
            match String.index_from_opt signature j ';' with
            | Some s when s < cl -> go (s + 1) (`Obj :: acc)
            | _ -> List.rev (`Obj :: acc)
          else go (j + 1) (`Obj :: acc))
        | _ -> go (i + 1) (`Int :: acc)
    in
    go (op + 1) []
  | _ -> []

(* a class whose onCreate body performs the dex's method references with
   arity-correct register lists; load calls take the library-name string
   register, primitive parameters take the scratch int register, and the
   *last* object parameter of every other call takes the running
   "last result" register (earlier object parameters get the scratch
   string) — so the materialized bodies carry a genuine def-use chain from
   source results to sink data arguments, not just a bag of call sites *)
let arg_regs signature =
  let params = sig_params signature in
  let n_obj = List.length (List.filter (fun p -> p = `Obj) params) in
  let seen = ref 0 in
  List.map
    (fun p ->
      match p with
      | `Int -> 2
      | `Obj ->
        incr seen;
        if !seen = n_obj then 1 else 3)
    params

let main_class_of_dex package (dex : App_model.dex) =
  let cls = Printf.sprintf "L%s/Main;" (String.map (fun c -> if c = '.' then '/' else c) package) in
  let body =
    [ B.Const_string (0, "native-lib"); B.Const (1, Dvalue.zero);
      B.Const (2, Dvalue.zero); B.Const_string (3, "dst") ]
    @ List.concat_map
        (fun signature ->
          if List.mem signature App_model.load_invocation_sigs then
            [ invoke_of_sig signature [ 0 ] ]
          else if sig_returns_value signature then
            [ invoke_of_sig signature (arg_regs signature); B.Move_result 1 ]
          else [ invoke_of_sig signature (arg_regs signature) ])
        dex.App_model.method_refs
    @ [ B.Return_void ]
  in
  let main =
    { Classes.m_class = cls; m_name = "onCreate"; m_shorty = "V";
      m_static = true; m_registers = 4;
      m_body = Classes.Bytecode (Array.of_list body, []) }
  in
  { Classes.c_name = cls; c_super = Some "Ljava/lang/Object;"; c_fields = [];
    c_methods = [ main ] }

let native_decl_class name =
  { Classes.c_name = name; c_super = Some "Ljava/lang/Object;"; c_fields = [];
    c_methods =
      [ { Classes.m_class = name; m_name = "nativeOp"; m_shorty = "II";
          m_static = true; m_registers = 0; m_body = Classes.Native "nativeOp" } ] }

let dex_image package (dex : App_model.dex) =
  Dexfile.to_string
    (main_class_of_dex package dex
    :: List.map native_decl_class dex.App_model.native_decl_classes)

(* a minimal but genuine library: one exported function *)
let native_lib_items =
  [ Asm.Label "JNI_OnLoad"; Asm.I (Insn.mov 0 (Insn.Imm 4)); Asm.I Insn.bx_lr ]

let native_lib () = Asm.assemble ~base:0x4A000000 native_lib_items

(* every library of every market app carries these bytes *)
let so_image = Sofile.to_string (native_lib ())

let abi_dir = function
  | App_model.Armeabi -> "armeabi"
  | App_model.X86 -> "x86"
  | App_model.Mips -> "mips"

let of_app_model (app : App_model.t) =
  let dex_entries =
    match app.App_model.main_dex with
    | Some dex -> [ ("classes.dex", dex_image app.App_model.package dex) ]
    | None -> []
  in
  let embedded =
    List.mapi
      (fun i dex ->
        (Printf.sprintf "assets/payload%d.dex" i, dex_image app.App_model.package dex))
      app.App_model.embedded_dexes
  in
  let libs =
    List.map
      (fun l ->
        (Printf.sprintf "lib/%s/%s" (abi_dir l.App_model.abi) l.App_model.lib_name,
         so_image))
      app.App_model.libs
  in
  { apk_package = app.App_model.package; entries = dex_entries @ embedded @ libs }

(* ---- scanning ---- *)

let dex_calls_load = Classifier.dex_bytes_call_load

let is_dex path =
  String.length path > 4 && String.sub path (String.length path - 4) 4 = ".dex"

let is_lib path = String.length path > 4 && String.sub path 0 4 = "lib/"

let classify apk =
  let main_dex = List.assoc_opt "classes.dex" apk.entries in
  let embedded =
    List.filter_map
      (fun (p, img) -> if p <> "classes.dex" && is_dex p then Some img else None)
      apk.entries
  in
  let has_libs = List.exists (fun (p, _) -> is_lib p) apk.entries in
  Classifier.classify_dex_bytes ~main_dex ~embedded_dexes:embedded ~has_libs
