module B = Ndroid_dalvik.Bytecode
module Classes = Ndroid_dalvik.Classes
module Sources = Ndroid_android.Sources
module Sinks = Ndroid_android.Sinks

type node = string * string

type t = {
  g_methods : (node, Classes.method_def) Hashtbl.t;
  g_calls_load : bool;
  g_jni_sites : int;
}

let source_tag cls name =
  List.find_map
    (fun (c, m, tag) -> if c = cls && m = name then Some tag else None)
    Sources.source_catalog

let is_sink cls name =
  List.exists (fun (c, m) -> c = cls && m = name) Sinks.sink_catalog

let is_load_call cls name =
  cls = "Ljava/lang/System;" && (name = "loadLibrary" || name = "load")

let build classes =
  let methods = Hashtbl.create 64 in
  List.iter
    (fun (c : Classes.class_def) ->
      List.iter
        (fun (m : Classes.method_def) ->
          Hashtbl.replace methods (m.Classes.m_class, m.Classes.m_name) m)
        c.Classes.c_methods)
    classes;
  let calls_load = ref false and jni_sites = ref 0 in
  Hashtbl.iter
    (fun _ (m : Classes.method_def) ->
      match m.Classes.m_body with
      | Classes.Native _ | Classes.Intrinsic _ -> ()
      | Classes.Bytecode (code, _) ->
        Array.iter
          (function
            | B.Invoke (_, mref, _) -> (
              let cls = mref.B.m_class and name = mref.B.m_name in
              if is_load_call cls name then calls_load := true;
              match Hashtbl.find_opt methods (cls, name) with
              | Some { Classes.m_body = Classes.Native _; _ } -> incr jni_sites
              | _ -> ())
            | _ -> ())
          code)
    methods;
  { g_methods = methods; g_calls_load = !calls_load; g_jni_sites = !jni_sites }

let methods t = t.g_methods
let find_method t node = Hashtbl.find_opt t.g_methods node
let calls_load t = t.g_calls_load
let jni_site_count t = t.g_jni_sites
