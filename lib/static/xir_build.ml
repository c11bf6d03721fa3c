(* Lowering the two per-language analyses into one {!Xir} graph.

   The Java side is recomputed from the dex CFGs (reaching definitions give
   the intra-method def-use edges; invokes are classified by the same
   {!Callgraph} predicates {!Dex_flow} uses).  The native side cannot be
   cheaply recomputed — which exported function upcalls what, and which
   hits a host sink, only falls out of the abstract interpretation — so
   the analyzer records those as [facts] while it runs and this module
   replays them into the graph. *)

module B = Ndroid_dalvik.Bytecode
module Classes = Ndroid_dalvik.Classes

(* ---- cross-boundary facts recorded during analysis ---- *)

type facts = {
  fx_seen : (string, unit) Hashtbl.t;
  mutable fx_upcalls : (string * string * string * string) list;
      (* lib, entry symbol, callee class, callee method *)
  mutable fx_upcall_sources : (string * string * string * string) list;
      (* lib, entry symbol, source class, source method *)
  mutable fx_upcall_sinks : (string * string * string * string) list;
      (* lib, entry symbol, flow sink name, flow site *)
  mutable fx_native_sinks : (string * string * string * string) list;
      (* lib, entry symbol, enclosing symbol, sink name *)
}

let facts_create () =
  { fx_seen = Hashtbl.create 16;
    fx_upcalls = [];
    fx_upcall_sources = [];
    fx_upcall_sinks = [];
    fx_native_sinks = [] }

let once fx key add =
  if not (Hashtbl.mem fx.fx_seen key) then begin
    Hashtbl.replace fx.fx_seen key ();
    add ()
  end

let record_upcall fx ~lib ~entry ~cls ~m =
  once fx (String.concat "\x01" [ "u"; lib; entry; cls; m ]) (fun () ->
      fx.fx_upcalls <- (lib, entry, cls, m) :: fx.fx_upcalls)

let record_upcall_source fx ~lib ~entry ~cls ~m =
  once fx (String.concat "\x01" [ "s"; lib; entry; cls; m ]) (fun () ->
      fx.fx_upcall_sources <- (lib, entry, cls, m) :: fx.fx_upcall_sources)

let record_upcall_sink fx ~lib ~entry ~sink ~site =
  once fx (String.concat "\x01" [ "k"; lib; entry; sink; site ]) (fun () ->
      fx.fx_upcall_sinks <- (lib, entry, sink, site) :: fx.fx_upcall_sinks)

let record_native_sink fx ~lib ~entry ~sym ~sink =
  once fx (String.concat "\x01" [ "n"; lib; entry; sym; sink ]) (fun () ->
      fx.fx_native_sinks <- (lib, entry, sym, sink) :: fx.fx_native_sinks)

(* ---- graph construction ---- *)

(* the JNI calling convention a Java->native crossing maps arguments
   through: r0 = JNIEnv*, r1 = this/cls, first two params in r2/r3, the
   rest on the stack *)
let aapcs_label (def : Classes.method_def) =
  let params =
    Classes.ins_count def - if def.Classes.m_static then 0 else 1
  in
  let buf = Buffer.create 32 in
  Buffer.add_string buf "env->r0; ";
  Buffer.add_string buf (if def.Classes.m_static then "cls->r1" else "this->r1");
  for i = 0 to params - 1 do
    Buffer.add_string buf
      (if i = 0 then "; p0->r2"
       else if i = 1 then "; p1->r3"
       else Printf.sprintf "; p%d->[sp+%d]" i ((i - 2) * 4))
  done;
  Buffer.contents buf

let crossing_down ~caller ~sym = caller ^ " => " ^ sym
let crossing_up ~sym ~cls ~m = sym ^ " => " ^ cls ^ "->" ^ m ^ " (upcall)"
let crossing_load ~caller ~lib = caller ^ " => JNI_OnLoad (" ^ lib ^ ")"

let build ~cg ~(bind : string -> string option)
    ~(libs : (string * string list) list) ~(facts : facts) =
  let g = Xir.create () in
  let onload_libs =
    List.filter_map
      (fun (name, syms) ->
        if List.mem "JNI_OnLoad" syms then Some name else None)
      libs
  in
  let lib_of sym = match bind sym with Some l -> l | None -> "?" in
  (* ---- Java side: one pass per bytecode method ---- *)
  Hashtbl.iter
    (fun (cls, name) (def : Classes.method_def) ->
      match def.Classes.m_body with
      | Classes.Native _ | Classes.Intrinsic _ -> ()
      | Classes.Bytecode (code, handlers) when Array.length code > 0 ->
        let qname = Classes.qualified_name def in
        let mnode = Xir.Method (cls, name) in
        let dnode pc = Xir.Def (cls, name, pc) in
        Xir.add_edge g mnode Xir.Defuse (dnode (-1));
        let cfg = Dex_cfg.of_code ~handlers code in
        Array.iteri
          (fun pc insn ->
            (* intra-method def-use edges from reaching definitions *)
            List.iter
              (fun reg ->
                List.iter
                  (fun d -> Xir.add_edge g (dnode d) Xir.Defuse (dnode pc))
                  (Dex_cfg.reaching_defs cfg pc reg))
              (Dex_cfg.uses insn);
            match insn with
            | B.Invoke (_, mref, _) -> (
              let mcls = mref.B.m_class and mm = mref.B.m_name in
              match Callgraph.source_tag mcls mm with
              | Some _ ->
                Xir.add_edge g
                  (Xir.Source (qname, mcls ^ "->" ^ mm))
                  Xir.Src (dnode pc)
              | None ->
                if Callgraph.is_sink mcls mm then
                  Xir.add_edge g (dnode pc) Xir.Snk
                    (Xir.Sink (Dex_flow.short_sink_name mcls mm, qname))
                else if Callgraph.is_load_call mcls mm then
                  List.iter
                    (fun lib ->
                      let c =
                        Xir.Crossing (crossing_load ~caller:qname ~lib)
                      in
                      Xir.add_edge g (dnode pc) Xir.Load c;
                      Xir.add_edge g c Xir.Load (Xir.Native (lib, "JNI_OnLoad")))
                    onload_libs
                else (
                  match Callgraph.find_method cg (mcls, mm) with
                  | Some callee -> (
                    match callee.Classes.m_body with
                    | Classes.Native sym ->
                      let c =
                        Xir.Crossing (crossing_down ~caller:qname ~sym)
                      in
                      let n = Xir.Native (lib_of sym, sym) in
                      Xir.add_edge g (dnode pc)
                        (Xir.Jni_down (aapcs_label callee))
                        c;
                      Xir.add_edge g c (Xir.Jni_down (aapcs_label callee)) n;
                      Xir.add_edge g n Xir.Ret (dnode pc)
                    | Classes.Bytecode _ ->
                      let callee_node = Xir.Method (mcls, mm) in
                      Xir.add_edge g (dnode pc) Xir.Call callee_node;
                      Xir.add_edge g callee_node Xir.Ret (dnode pc)
                    | Classes.Intrinsic _ -> ())
                  | None -> ()))
            | B.Iget (_, _, f) | B.Sget (_, f) ->
              Xir.add_edge g
                (Xir.Field (f.B.f_class, f.B.f_name))
                Xir.Heap (dnode pc)
            | B.Iput (_, _, f) | B.Sput (_, f) ->
              Xir.add_edge g (dnode pc) Xir.Heap
                (Xir.Field (f.B.f_class, f.B.f_name))
            | B.Aget _ -> Xir.add_edge g Xir.Arrays Xir.Heap (dnode pc)
            | B.Aput _ -> Xir.add_edge g (dnode pc) Xir.Heap Xir.Arrays
            | B.Throw _ -> Xir.add_edge g (dnode pc) Xir.Heap Xir.Exn
            | B.Move_exception _ -> Xir.add_edge g Xir.Exn Xir.Heap (dnode pc)
            | _ -> ())
          code
      | Classes.Bytecode _ -> ())
    (Callgraph.methods cg);
  (* ---- native side: replay the recorded cross-boundary facts ---- *)
  List.iter
    (fun (lib, entry, cls, m) ->
      let n = Xir.Native (lib, entry) in
      let c = Xir.Crossing (crossing_up ~sym:entry ~cls ~m) in
      Xir.add_edge g n Xir.Jni_up c;
      Xir.add_edge g c Xir.Jni_up (Xir.Method (cls, m));
      Xir.add_edge g (Xir.Method (cls, m)) Xir.Ret n)
    facts.fx_upcalls;
  List.iter
    (fun (lib, entry, cls, m) ->
      Xir.add_edge g
        (Xir.Source (entry, cls ^ "->" ^ m))
        Xir.Src
        (Xir.Native (lib, entry)))
    facts.fx_upcall_sources;
  List.iter
    (fun (lib, entry, sink, site) ->
      Xir.add_edge g (Xir.Native (lib, entry)) Xir.Snk (Xir.Sink (sink, site)))
    facts.fx_upcall_sinks;
  List.iter
    (fun (lib, entry, sym, sink) ->
      let inner = Xir.Native (lib, sym) in
      if sym <> entry then
        Xir.add_edge g (Xir.Native (lib, entry)) Xir.Call inner;
      Xir.add_edge g inner Xir.Snk (Xir.Sink (sink, sym)))
    facts.fx_native_sinks;
  g
