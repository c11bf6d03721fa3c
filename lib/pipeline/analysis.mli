(** The unified analysis facade.

    One entry point drives either analyzer — the static JNI supergraph
    ({!Ndroid_static.Analyzer}), a full dynamic NDroid run
    ({!Ndroid_apps.Harness} + {!Ndroid_core.Ndroid}), or both — over
    either kind of subject, and always yields the one report shape
    ({!Ndroid_report.Verdict.report}).  Forked workers call {!run}; domain
    workers and the in-process paths go through {!service_run}. *)

val version : string
(** Analyzer-version component of every cache key.  Bump whenever a change
    to the static or dynamic analyzers can alter verdicts, so stale cached
    results from older binaries can never be served. *)

val feature_key : string
(** The dynamic path's feature switches (superblocks, native summaries,
    focus gating), folded into every cache key so flipping one invalidates
    exactly the results it could change. *)

val enable_summary_cache : Cache.t -> unit
(** Persist native taint summaries as raw entries in [cache], keyed
    ["summary-<library digest>"].  Call once before running tasks; the
    pool does this automatically when configured with a cache. *)

val run : ?obs:Ndroid_obs.Ring.t -> Task.t -> Ndroid_report.Verdict.report
(** Analyze one task.  Never raises: an analyzer exception becomes a
    [Crashed] verdict carrying the exception text.  Ignores the task's
    fault marker (faults are acted on by the worker process, not here).
    [obs] observes any dynamic run: the device records into it, flagged
    flows gain provenance from it, and the execution counters are mirrored
    into its metrics registry. *)

val digest : Task.t -> string
(** Cache key: hex MD5 over the app's content (artifact bytes for bundled
    apps, the generator-independent content descriptor for market apps),
    the analysis mode, {!version} and {!feature_key}.  Two tasks with
    equal digests would produce equal reports. *)

(** {1 The request-oriented facade}

    One [service] value owns the answer-one-request path — digest
    (memoized per subject+mode), in-memory warm layer, on-disk cache,
    analyzer, store — so the `ndroid serve` daemon, the batch pool's
    cache pass and [Pool.run_inline] share exactly one definition of
    "hit" and "cacheable".  A service is single-process state: the warm
    layer is what a long-lived daemon accumulates across requests.

    A service is domain-safe: one mutex guards the memo tables and
    counters, held only across table probes — digesting, analyzing and
    disk I/O all run unlocked — so the {!Domain_pool} engine's workers
    share one warm layer without serializing on it.  Both memo tables
    are bounded ([capacity] entries each) with second-chance eviction,
    so a long-lived daemon converges on its hottest answers instead of
    growing without limit. *)

type service

val service : ?cache:Cache.t -> ?capacity:int -> unit -> service
(** Also installs the native-summary persistence hooks on [cache]
    ({!enable_summary_cache}), so create the service before forking any
    workers.  [capacity] bounds each memo table (default 65536). *)

val service_run :
  service -> ?obs:Ndroid_obs.Ring.t -> Task.t ->
  Ndroid_report.Verdict.report * bool
(** Answer one request, from the warm layer / cache when possible
    ([true] = served from cache).  Tasks carrying a fault marker are
    never cache-served and never stored — a fault means "really run
    this" — though [service_run] itself still ignores the marker (it is
    acted on by worker processes, see {!Worker}).  Crashed/Timeout
    reports are never stored. *)

val service_find :
  service -> Task.t -> (Ndroid_report.Verdict.report * string) option
(** The probe alone: the cached report and its digest, warm layer first,
    then disk (promoting the entry into the warm layer).  [None] for
    fault-marked tasks.  Does not count a request. *)

val service_store : service -> digest:string -> Ndroid_report.Verdict.report -> unit
(** Store a computed report under its digest (warm layer + disk);
    Crashed/Timeout are dropped. *)

val service_digest : service -> Task.t -> string
(** {!digest}, memoized per subject+mode. *)

val service_requests : service -> int
val service_hits : service -> int
(** Requests answered through {!service_run} and how many of those hit
    the warm layer or disk cache. *)

val service_evictions : service -> int
(** Entries evicted from the two memo tables (second-chance) since the
    service was created. *)

val service_warm_entries : service -> int
(** Reports currently held in the warm layer — bounded by [capacity]. *)
