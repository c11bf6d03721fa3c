module Classifier = Ndroid_corpus.Classifier
module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict

let pp_verdict ppf (v : Analyzer.verdict) =
  Format.fprintf ppf "%s: %s@." v.Analyzer.v_name
    (if Analyzer.flagged v then "FLAGGED" else "clean");
  (match v.Analyzer.v_classification with
   | Some c ->
     Format.fprintf ppf "  classification:   %s@." (Classifier.classification_name c)
   | None -> ());
  Format.fprintf ppf "  loads native lib: %b@." v.Analyzer.v_loads_library;
  Format.fprintf ppf "  JNI call sites:   %d@." v.Analyzer.v_jni_sites;
  Format.fprintf ppf "  app methods:      %d@." v.Analyzer.v_methods;
  Format.fprintf ppf "  native insns:     %d@." v.Analyzer.v_native_insns;
  Format.fprintf ppf "  fixpoint rounds:  %d@." v.Analyzer.v_rounds;
  (* only a verdict with a flow builds the graph *)
  if v.Analyzer.v_xir_nodes > 0 then
    Format.fprintf ppf "  xir graph:        %d nodes / %d edges@."
      v.Analyzer.v_xir_nodes v.Analyzer.v_xir_edges;
  if not (Ndroid_report.Focus.is_empty v.Analyzer.v_focus) then
    Format.fprintf ppf "  focus set:        %a@." Ndroid_report.Focus.pp
      v.Analyzer.v_focus;
  List.iter
    (fun f -> Format.fprintf ppf "  flow: %a@." Flow.pp f)
    (Analyzer.flows v)

(* JSON goes through the one canonical codec in {!Ndroid_report}; this
   module only maps the analyzer's counters into report metadata. *)

let to_report (v : Analyzer.verdict) =
  { Verdict.r_app = v.Analyzer.v_name;
    r_analysis = "static";
    r_verdict = v.Analyzer.v_result;
    r_meta =
      [ ("classification",
         (match v.Analyzer.v_classification with
          | Some c -> Json.Str (Classifier.classification_name c)
          | None -> Json.Null));
        ("loads_library", Json.Bool v.Analyzer.v_loads_library);
        ("jni_sites", Json.Int v.Analyzer.v_jni_sites);
        ("methods", Json.Int v.Analyzer.v_methods);
        ("native_insns", Json.Int v.Analyzer.v_native_insns);
        ("rounds", Json.Int v.Analyzer.v_rounds);
        ("xir_nodes", Json.Int v.Analyzer.v_xir_nodes);
        ("xir_edges", Json.Int v.Analyzer.v_xir_edges);
        ("focus", Ndroid_report.Focus.to_json v.Analyzer.v_focus) ] }

let verdict_json v = Json.to_string (Verdict.report_to_json (to_report v))

let verdicts_json vs =
  Json.to_string (Verdict.reports_to_json (List.map to_report vs))
