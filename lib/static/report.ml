module Classifier = Ndroid_corpus.Classifier
module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict

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
