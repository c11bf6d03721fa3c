(** Rendering static verdicts, human-readable and as canonical JSON.

    The ad-hoc JSON printer this module used to carry is gone: everything
    serializes through {!Ndroid_report.Verdict}, the same codec the dynamic
    path and the batch pipeline use, so `ndroid analyze --json` output is
    deterministic and schema-identical across analyses. *)

val to_report : Analyzer.verdict -> Ndroid_report.Verdict.report
(** The unified per-app report (analysis = ["static"]), carrying the
    analyzer's counters as deterministic metadata. *)
