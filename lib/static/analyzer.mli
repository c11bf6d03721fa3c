(** The cross-language supergraph analyzer.

    Ties the three layers together (JuCify-style): the Java side
    ({!Dex_flow} over {!Callgraph}), the native side ({!Native_flow} over
    {!Native_cfg}), and the JNI boundary — native-method symbols resolved
    against the app's library symbol tables for Java→native edges,
    [Call*Method] constant-resolved method IDs for native→Java edges.
    An outer fixpoint re-analyzes entry points until every monotone
    summary (Java fields/arrays, per-library abstract memory) is stable,
    so taint stored by one JNI call and fetched by a later one is seen. *)

module Taint = Ndroid_taint.Taint
module Classes = Ndroid_dalvik.Classes
module Asm = Ndroid_arm.Asm

type input = {
  in_name : string;
  in_classes : Classes.class_def list;
  in_libs : (string * Asm.program) list;
  in_entries : (string * string) list;
      (** root methods; [[]] = every app bytecode method *)
}
(** Calls out of [in_libs] resolve against the host-function layout
    every device mounts ({!Ndroid_runtime.Device.host_row}). *)

type verdict = {
  v_name : string;
  v_classification : Ndroid_corpus.Classifier.classification option;
  v_result : Ndroid_report.Verdict.t;
      (** the unified verdict: [Clean] or [Flagged] with deduplicated,
          sorted flows (the pipeline adds [Crashed]/[Timeout] around it) *)
  v_loads_library : bool;
  v_jni_sites : int;  (** static Java→native call sites *)
  v_methods : int;  (** app methods in the call graph *)
  v_native_insns : int;  (** decoded native instructions across libs *)
  v_rounds : int;  (** outer fixpoint rounds until stable *)
  v_focus : Ndroid_report.Focus.t;
      (** slice projection for [Flagged] verdicts: the methods, native
          functions and JNI crossings a focused dynamic run must
          instrument ([Focus.empty] when clean) *)
  v_xir_nodes : int;  (** cross-language IR size *)
  v_xir_edges : int;
}

val analyze :
  ?classification:Ndroid_corpus.Classifier.classification -> input -> verdict

val analyze_apk : Ndroid_corpus.Apk.t -> verdict
(** Run the analyzer over binary APK artifacts: dex entries are parsed
    with {!Ndroid_dalvik.Dexfile}, [lib/] entries with
    {!Ndroid_arm.Sofile}; classification comes from the shared
    {!Ndroid_corpus.Classifier} core. *)

val flows : verdict -> Flow.t list
(** The flows of a [Flagged] result, [] otherwise. *)

val flagged : verdict -> bool
(** Any source→sink flow found. *)

val flagged_at : verdict -> string -> bool
(** Does any flow's sink name contain the given substring?  (Matches the
    dynamic harness's [expected_sink] convention; the empty string
    matches any flow.) *)
