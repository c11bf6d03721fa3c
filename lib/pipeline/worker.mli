(** The per-task worker body, shared by both engines, and the forked
    worker process built on it.

    {!analyze} is the one definition of "run a task on a worker": clear
    the worker's obs ring, analyze, record the task in the ring's metrics
    registry ([tasks], [task_seconds], [task_bytecodes],
    [ring_overwritten]) and, when a trace window is given, drain the ring
    through a fresh {!Ndroid_obs.Stream.tap}.  {!Domain_pool}'s domains
    call it in-process; {!loop} calls it in a forked child.

    {!loop} blocks reading v0 task frames ({!Wire}) from [task_r] and
    writes one v0 result frame per task to [result_w]:
    [{id; seconds; metrics; report; events; dropped; lost}], the task's
    whole event stream included.  EOF on [task_r] is the shutdown signal.
    A task frame may carry a ["trace"] member (the throttle window, in
    event-seq units) that {!Task.of_json} ignores.  Fault markers are
    acted on here — crash, self-SIGKILL, hang, or sleep-then-analyze —
    which is what the crash-isolation and service-layer tests inject.
    {!Executor} owns the parent side. *)

type completion = {
  ticket : int;  (** the caller's id for the task, echoed back *)
  report : Ndroid_report.Verdict.report;
  seconds : float;
      (** analysis wall time on the worker; for a [Crashed] or [Timeout]
          verdict, the time from dispatch to the worker's death *)
  events : Ndroid_obs.Stream.event list;
      (** the task's throttled event stream; empty unless it was
          submitted with a trace window *)
  dropped : int;  (** throttle-suppressed events for this task *)
  lost : int;  (** events lost to ring wraparound for this task *)
}

val analyze :
  ?service:Analysis.service -> ring:Ndroid_obs.Ring.t -> ?trace:int ->
  ticket:int -> Task.t -> completion
(** Run one task on [ring] (cleared first: its live window must hold
    this task's events only).  With [service], through
    {!Analysis.service_run}, which probes and stores; without, through
    {!Analysis.run}.  Ignores the task's fault marker. *)

val loop : Unix.file_descr -> Unix.file_descr -> unit
(** [loop task_r result_w] never returns: it [_exit]s when the task pipe
    reaches EOF (or on any escaping exception).  Call only in a forked
    child. *)

val meta_int : string -> Ndroid_report.Verdict.report -> int
(** A counter from the report's meta, accepting both the bare key (dynamic
    reports) and its ["dynamic_"]-prefixed form (merged reports). *)
