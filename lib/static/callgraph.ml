module B = Ndroid_dalvik.Bytecode
module Classes = Ndroid_dalvik.Classes
module Taint = Ndroid_taint.Taint
module Sources = Ndroid_android.Sources
module Sinks = Ndroid_android.Sinks

type node = string * string

type t = {
  g_methods : (node, Classes.method_def) Hashtbl.t;
  g_edges : (node, node list) Hashtbl.t;
  g_native_sites : (node * string) list;
  g_load_sites : node list;
  g_source_sites : (node * Taint.t) list;
  g_sink_sites : (node * string) list;
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
  let edges = Hashtbl.create 64 in
  let native_sites = ref [] and load_sites = ref [] in
  let source_sites = ref [] and sink_sites = ref [] in
  Hashtbl.iter
    (fun node (m : Classes.method_def) ->
      match m.Classes.m_body with
      | Classes.Native _ | Classes.Intrinsic _ -> ()
      | Classes.Bytecode (code, _) ->
        let outgoing = ref [] in
        Array.iter
          (function
            | B.Invoke (_, mref, _) -> (
              let cls = mref.B.m_class and name = mref.B.m_name in
              let callee = (cls, name) in
              if is_load_call cls name then load_sites := node :: !load_sites;
              (match source_tag cls name with
               | Some tag -> source_sites := (node, tag) :: !source_sites
               | None -> ());
              if is_sink cls name then
                sink_sites := (node, cls ^ "->" ^ name) :: !sink_sites;
              match Hashtbl.find_opt methods callee with
              | Some { Classes.m_body = Classes.Native sym; _ } ->
                native_sites := (node, sym) :: !native_sites
              | Some _ -> outgoing := callee :: !outgoing
              | None -> ())
            | _ -> ())
          code;
        Hashtbl.replace edges node (List.sort_uniq compare !outgoing))
    methods;
  { g_methods = methods; g_edges = edges;
    g_native_sites = List.rev !native_sites;
    g_load_sites = List.sort_uniq compare !load_sites;
    g_source_sites = List.rev !source_sites;
    g_sink_sites = List.rev !sink_sites }

let methods t = t.g_methods
let find_method t node = Hashtbl.find_opt t.g_methods node

let callees t node =
  match Hashtbl.find_opt t.g_edges node with Some l -> l | None -> []

let reachable t roots =
  let seen = Hashtbl.create 64 in
  let rec go node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      List.iter go (callees t node)
    end
  in
  List.iter go roots;
  Hashtbl.fold (fun n () acc -> n :: acc) seen []

let native_sites t = t.g_native_sites
let load_sites t = t.g_load_sites
let source_sites t = t.g_source_sites
let sink_sites t = t.g_sink_sites
let calls_load t = t.g_load_sites <> []
let jni_site_count t = List.length t.g_native_sites
