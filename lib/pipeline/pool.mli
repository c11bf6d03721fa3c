(** The batch sweep: run a corpus through one {!Executor} and collect
    one {!Ndroid_report.Verdict.report} per task.

    An optional {!Cache} pass first answers unchanged apps without
    dispatching them.  Every miss is then submitted to an executor of the
    engine {!Engine.resolve} picks: fork when the run needs process
    isolation (a timeout, an injected kill, any fault-marked task),
    domains otherwise.  Under the forked engine a worker dying on one APK
    yields a [Crashed] verdict for that app only, and a worker overrunning
    its budget is killed and the app records [Timeout]; either way the
    worker is replaced and the sweep goes on.  Under a forced [Domains]
    engine, fault markers and timeouts are ignored, as {!run_inline}
    ignores them.  A domains sweep runs tasks on the calling domain too,
    so it spawns [min jobs cores - 1] domains (none at [jobs] 1).  A
    process that ran a domains sweep which spawned a domain cannot run a
    forked one afterwards: OCaml 5's [Unix.fork] refuses once a domain
    has been spawned.

    Results are ordered by task id and verdicts carry no timing, so a
    sweep's JSON is bit-identical across [--jobs], engines and runs.
    Timing lives in the aggregate {!stats}, per phase. *)

type config = {
  c_jobs : int;  (** worker processes or domains; >= 1 *)
  c_timeout : float option;
      (** per-app wall-clock budget, seconds (forked engine only) *)
  c_cache : Cache.t option;
  c_kill_worker_after : int option;
      (** fault injection: SIGKILL one live worker after that many worker
          results have arrived — proves no result is lost and nothing
          hangs when workers die under the pool (forked engine only) *)
  c_progress : (done_:int -> total:int -> unit) option;
  c_engine : Engine.t;  (** which engine executes cache misses *)
}

val config :
  ?jobs:int -> ?timeout:float -> ?cache:Cache.t -> ?kill_worker_after:int ->
  ?progress:(done_:int -> total:int -> unit) -> ?engine:Engine.t -> unit ->
  config
(** [engine] defaults to {!Engine.Fork} — the library keeps the isolating
    engine unless a caller opts in; the CLI defaults to [auto]. *)

type stats = {
  s_total : int;
  s_engine : string;
      (** the engine that executed this run's cache misses ("fork" or
          "domains"), after {!Engine.Auto} resolution *)
  s_from_workers : int;
      (** completed by the executor, crashed and timed-out apps included *)
  s_cache_hits : int;
  s_crashed : int;  (** apps lost to a worker's death *)
  s_timeouts : int;  (** apps killed at their budget *)
  s_respawns : int;  (** workers replaced after a death or a deadline kill *)
  s_steals : int;  (** cross-shard steals in the work queue *)
  s_shed : int;
      (** requests refused by admission control.  Always [0] in a batch
          sweep — the batch queue is sized to the corpus — but the field
          rides alongside the other counters so batch and service stats
          share one shape ({!Server} sheds under overload). *)
  s_injected_kills : int;
  s_evictions : int;
      (** memo entries evicted by the service's second-chance cap — [0]
          unless the sweep outgrew {!Analysis.service}'s capacity *)
  s_wall : float;  (** whole sweep, seconds *)
  s_cache_pass : float;
      (** phase: the parent-side cache pass, one
          {!Analysis.service_find} per task (digesting each for the disk
          probe); [0.] without a cache *)
  s_fork : float;  (** phase: forking workers (initial + respawns); [0.]
                       under the domain engine *)
  s_wire : float;
      (** phase: the forked engine's marshaling tax — serializing task
          frames, parsing result frames, re-absorbing worker metrics from
          JSON.  Identically [0.] under the domain engine, which is the
          cold-path win measured by the bench's engine rows *)
  s_collect : float;  (** phase: the executor's whole life *)
  s_analyze_cpu : float;
      (** sum of per-task wall seconds, each measured on its worker around
          {!Worker.analyze} (for a crashed or timed-out task, dispatch to
          death).  Wall, not CPU: it includes stop-the-world collection
          pauses and time spent waiting for a core, so it can exceed the
          serial-equivalent work.  The CLI's [bytecodes_per_sec] is
          [s_bytecodes] divided by it. *)
  s_bytecodes : int;
      (** Dalvik bytecodes executed across every dynamic analysis in the
          sweep (from the deterministic per-report counters) *)
  s_jni_crossings : int;
      (** JNI boundary crossings (Java→native calls + native→Java JNI
          function calls) across every dynamic analysis *)
  s_focused_methods : int;
      (** focus-set method entries observed across every focused (hybrid)
          dynamic run *)
  s_skipped_bytecodes : int;
      (** bytecodes interpreted before focus activation — the work hybrid
          runs performed untracked *)
  s_ring_overwritten : int;
      (** obs-ring events lost to wraparound across every worker in the
          sweep (the merged ["ring_overwritten"] counter) — the size of
          the post-hoc provenance gap, attributable instead of silent *)
  s_metrics : Ndroid_report.Json.t;
      (** the sweep-wide observability registry
          ({!Ndroid_obs.Metrics.to_json} shape): the executor's registries
          combined with the parent's own counters (cache hits/misses,
          respawns, steals, evictions, per-phase timings) and histograms
          ([task_seconds] covers clean, crashed {e and} timed-out apps) *)
}

val counters_of_reports :
  Ndroid_report.Verdict.report array -> int * int * int * int
(** [(bytecodes, jni_crossings, focused_methods, skipped_bytecodes)]
    summed from the reports' counter meta — for callers of {!run_inline},
    which returns no {!stats}. *)

val run : config -> Task.t list -> Ndroid_report.Verdict.report array * stats
(** Run every task; the returned array is indexed by position in the input
    list (= task id order if ids are dense).  Tasks must carry distinct
    [t_id]s equal to their list position. *)

val run_inline :
  ?cache:Cache.t -> ?obs:Ndroid_obs.Ring.t ->
  ?progress:(done_:int -> total:int -> unit) -> Task.t list ->
  Ndroid_report.Verdict.report array
(** Sequential in-process execution of the same tasks (no forking, so no
    crash isolation, no timeouts, and fault markers are ignored), built
    on {!Analysis.service_run} — the same request path the daemon
    serves.  The fast path for [--jobs 1] without a timeout;
    byte-identical reports to {!run} on non-faulting corpora.  [obs]
    observes every dynamic run in this process — the only mode in which
    one ring can see a whole sweep, which is what
    [ndroid analyze --trace] uses.  Without [obs] the tasks share one
    private ring of the default capacity, cleared before each task as a
    worker's is.  [progress] fires once per task,
    cache hit or computed, like {!config}'s [c_progress]. *)
