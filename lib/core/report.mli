(** Analysis report.

    Renders everything an attached NDroid instance learned about one app
    run — the verdict, each leak with its taint categories, the source
    policies that fired, the engine statistics, and the flow log — as the
    kind of triage report an analyst (or the paper's Sec. VI evaluation)
    works from.  Machine-readable output goes through the unified
    {!Ndroid_report.Verdict} codec, identical in shape to the static
    analyzer's reports. *)

val to_report : ?app_name:string -> Ndroid.t -> Ndroid_report.Verdict.report
(** The unified per-app report (analysis = ["dynamic"]): the run's
    {!Ndroid.verdict} plus engine counters as deterministic metadata. *)

(** {!to_report} in canonical JSON. *)

val generate :
  ?app_name:string ->
  ?transmissions:Ndroid_android.Network.transmission list ->
  ?file_writes:Ndroid_android.Filesystem.write_record list ->
  Ndroid.t ->
  string

val print :
  ?app_name:string ->
  ?transmissions:Ndroid_android.Network.transmission list ->
  ?file_writes:Ndroid_android.Filesystem.write_record list ->
  Ndroid.t ->
  unit
(** {!generate} to stdout. *)
