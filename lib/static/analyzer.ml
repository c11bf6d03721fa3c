module Taint = Ndroid_taint.Taint
module T = Taint
module Classes = Ndroid_dalvik.Classes
module Dexfile = Ndroid_dalvik.Dexfile
module Asm = Ndroid_arm.Asm
module Sofile = Ndroid_arm.Sofile
module Sources = Ndroid_android.Sources
module Sinks = Ndroid_android.Sinks
module Classifier = Ndroid_corpus.Classifier
module Apk = Ndroid_corpus.Apk

type input = {
  in_name : string;
  in_classes : Classes.class_def list;
  in_libs : (string * Asm.program) list;
  in_entries : (string * string) list;
}

type verdict = {
  v_name : string;
  v_classification : Classifier.classification option;
  v_result : Ndroid_report.Verdict.t;
  v_loads_library : bool;
  v_jni_sites : int;
  v_methods : int;
  v_native_insns : int;
  v_rounds : int;
  v_focus : Ndroid_report.Focus.t;
  v_xir_nodes : int;
  v_xir_edges : int;
}

let unions = List.fold_left T.union T.clear

(* FindClass takes "com/example/Leak"; the class table keys are
   "Lcom/example/Leak;" *)
let normalize_class_sig cls =
  if String.length cls > 0 && cls.[0] = 'L' then cls else "L" ^ cls ^ ";"

let source_tag cls m =
  List.find_map
    (fun (c, n, tag) -> if c = cls && n = m then Some tag else None)
    Sources.source_catalog

let is_sink cls m = List.exists (fun (c, n) -> c = cls && n = m) Sinks.sink_catalog

let max_rounds = 8

let analyze ?classification input =
  let cg = Callgraph.build input.in_classes in
  let libs =
    List.map (fun (n, p) -> Native_flow.make_lib ~name:n p) input.in_libs
  in
  let flows = Hashtbl.create 16 in
  let record f = Hashtbl.replace flows (Flow.key f) f in
  (* native symbol -> (lib, entry address) *)
  let bind_native sym =
    List.find_map
      (fun (lib : Native_flow.lib) ->
        Option.map (fun a -> (lib, a)) (Native_cfg.symbol_addr lib.Native_flow.nf_cfg sym))
      libs
  in
  (* facts for the cross-language IR: which exported native function a
     crossing entered through, what it upcalled, where it leaked *)
  let facts = Xir_build.facts_create () in
  let nat_stack : (string * string) list ref = ref [] in
  let record f =
    (match (f.Flow.f_context, !nat_stack) with
     | Flow.Native_ctx, (lib, entry) :: _ ->
       Xir_build.record_native_sink facts ~lib ~entry ~sym:f.Flow.f_site
         ~sink:f.Flow.f_sink
     | _ -> ());
    record f
  in
  (* the two boundary edges are mutually recursive: Java methods call
     native entries, native code upcalls Java methods *)
  let dex_ctx = ref None in
  let rec native_call (def : Classes.method_def) argts ~ctrl =
    match def.Classes.m_body with
    | Classes.Native sym -> (
      match bind_native sym with
      | None ->
        (* unbound native method: assume it can return its arguments *)
        T.union (unions argts) ctrl
      | Some (lib, addr) ->
        let params, this_t =
          if def.Classes.m_static then (argts, T.clear)
          else
            match argts with [] -> ([], T.clear) | this :: rest -> (rest, this)
        in
        let nth i = match List.nth_opt params i with Some t -> t | None -> T.clear in
        let stack_ts =
          if List.length params > 2 then
            unions (List.filteri (fun i _ -> i >= 2) params)
          else T.clear
        in
        let j t = T.union t ctrl in
        nat_stack := (lib.Native_flow.nf_name, sym) :: !nat_stack;
        let r =
          Native_flow.analyze_entry env lib ~entry:addr
            ~args:[ T.clear; j this_t; j (nth 0); j (nth 1) ]
            ~stack:(j stack_ts)
        in
        nat_stack := List.tl !nat_stack;
        r)
    | _ -> T.union (unions argts) ctrl
  and upcall cls m argts =
    let cls = normalize_class_sig cls in
    let in_native f =
      match !nat_stack with (lib, entry) :: _ -> f ~lib ~entry | [] -> ()
    in
    match source_tag cls m with
    | Some tag ->
      in_native (fun ~lib ~entry ->
          Xir_build.record_upcall_source facts ~lib ~entry ~cls ~m);
      tag
    | None ->
      if is_sink cls m then begin
        in_native (fun ~lib ~entry ->
            Xir_build.record_upcall_sink facts ~lib ~entry
              ~sink:(Dex_flow.short_sink_name cls m)
              ~site:(cls ^ "->" ^ m ^ " (upcall)"));
        let leak = unions argts in
        if T.is_tainted leak then
          record
            { Flow.f_taint = leak; f_sink = Dex_flow.short_sink_name cls m;
              f_context = Flow.Java_ctx; f_site = cls ^ "->" ^ m ^ " (upcall)";
              f_hops = [] };
        T.clear
      end
      else (
        match Callgraph.find_method cg (cls, m) with
        | Some callee -> (
          in_native (fun ~lib ~entry ->
              Xir_build.record_upcall facts ~lib ~entry ~cls ~m);
          match !dex_ctx with
          | Some ctx -> Dex_flow.analyze_method ctx callee argts
          | None -> unions argts)
        | None -> unions argts)
  and env =
    { Native_flow.e_upcall = upcall; e_record = record }
  in
  let ctx = Dex_flow.make ~cg ~record ~native_call in
  dex_ctx := Some ctx;
  (* root set: declared entries, else every app bytecode method *)
  let roots =
    match input.in_entries with
    | [] ->
      Hashtbl.fold
        (fun node (m : Classes.method_def) acc ->
          match m.Classes.m_body with
          | Classes.Bytecode _ -> node :: acc
          | _ -> acc)
        (Callgraph.methods cg) []
      |> List.sort compare
    | entries -> entries
  in
  let run_round () =
    Dex_flow.reset_memo ctx;
    (* library initialization runs first, as the loader would *)
    List.iter
      (fun (lib : Native_flow.lib) ->
        match Native_cfg.symbol_addr lib.Native_flow.nf_cfg "JNI_OnLoad" with
        | Some a ->
          ignore
            (Native_flow.analyze_entry env lib ~entry:a
               ~args:[ T.clear; T.clear; T.clear; T.clear ] ~stack:T.clear)
        | None -> ())
      libs;
    List.iter
      (fun node ->
        match Callgraph.find_method cg node with
        | Some def ->
          let nargs =
            match def.Classes.m_body with
            | Classes.Bytecode _ -> Classes.ins_count def
            | _ -> 0
          in
          ignore (Dex_flow.analyze_method ctx def (List.init nargs (fun _ -> T.clear)))
        | None -> ())
      roots
  in
  let rounds = ref 0 in
  let stable = ref false in
  while (not !stable) && !rounds < max_rounds do
    incr rounds;
    Dex_flow.clear_changed ctx;
    let mem_before =
      List.map (fun (l : Native_flow.lib) -> T.to_bits l.Native_flow.nf_mem) libs
    in
    run_round ();
    let mem_after =
      List.map (fun (l : Native_flow.lib) -> T.to_bits l.Native_flow.nf_mem) libs
    in
    stable := (not (Dex_flow.changed ctx)) && mem_before = mem_after
  done;
  let flow_list =
    Hashtbl.fold (fun _ f acc -> f :: acc) flows [] |> List.sort Flow.compare
  in
  (* lower both sides into the cross-language IR and slice it: the focus
     set is what a subsequent dynamic run must instrument, the hop chains
     become each static flow's provenance *)
  let xir =
    let bind sym =
      Option.map
        (fun ((l : Native_flow.lib), _) -> l.Native_flow.nf_name)
        (bind_native sym)
    in
    let lib_syms =
      List.map
        (fun (l : Native_flow.lib) ->
          ( l.Native_flow.nf_name,
            List.map fst (Native_cfg.symbols l.Native_flow.nf_cfg) ))
        libs
    in
    Xir_build.build ~cg ~bind ~libs:lib_syms ~facts
  in
  let slice = Slice.compute xir in
  let flow_list, covered = Slice.annotate slice flow_list in
  let focus =
    if flow_list = [] then Ndroid_report.Focus.empty
    else if covered then Slice.focus slice
    else Slice.full xir
  in
  { v_name = input.in_name;
    v_classification = classification;
    v_result = Ndroid_report.Verdict.normalize (Flagged flow_list);
    v_loads_library = Callgraph.calls_load cg || Dex_flow.loads_library ctx;
    v_jni_sites = Callgraph.jni_site_count cg;
    v_methods = Hashtbl.length (Callgraph.methods cg);
    v_native_insns =
      List.fold_left
        (fun acc (l : Native_flow.lib) ->
          acc + Native_cfg.insn_count l.Native_flow.nf_cfg)
        0 libs;
    v_rounds = !rounds;
    v_focus = focus;
    v_xir_nodes = Xir.node_count xir;
    v_xir_edges = Xir.edge_count xir }

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let analyze_apk (apk : Apk.t) =
  let classification = Apk.classify apk in
  let is_dex p =
    String.length p > 4 && String.sub p (String.length p - 4) 4 = ".dex"
  in
  let is_lib p = String.length p > 4 && String.sub p 0 4 = "lib/" in
  let classes =
    List.concat_map
      (fun (p, bytes) ->
        if is_dex p then try Dexfile.of_string bytes with Dexfile.Bad_dex _ -> []
        else [])
      apk.Apk.entries
  in
  let libs =
    List.filter_map
      (fun (p, bytes) ->
        if is_lib p then
          try Some (basename p, Sofile.of_string bytes)
          with Sofile.Bad_sofile _ -> None
        else None)
      apk.Apk.entries
  in
  analyze ~classification
    { in_name = apk.Apk.apk_package; in_classes = classes; in_libs = libs;
      in_entries = [] }

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub hay i nl = needle then found := true
    done;
    !found
  end

let flows v = Ndroid_report.Verdict.flows v.v_result
let flagged v = Ndroid_report.Verdict.flagged v.v_result

let flagged_at v needle =
  List.exists
    (fun (f : Flow.t) -> contains_substring f.Flow.f_sink needle)
    (flows v)
