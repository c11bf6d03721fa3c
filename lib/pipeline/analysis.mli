(** The unified analysis facade.

    One entry point drives either analyzer — the static JNI supergraph
    ({!Ndroid_static.Analyzer}), a full dynamic NDroid run
    ({!Ndroid_apps.Harness} + {!Ndroid_core.Ndroid}), or both — over
    either kind of subject, and always yields the one report shape
    ({!Ndroid_report.Verdict.report}).  Forked workers call {!run} and
    their parent stores the result ({!service_store}); domain workers and
    the in-process paths go through {!service_run}.  Which requests may be
    answered from cache, stored or coalesced is decided here and nowhere
    else ({!key}, {!service_store}). *)

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
(** The disk cache's key: hex MD5 over the app's content (artifact bytes
    for bundled apps, the generator-independent content descriptor for
    market apps), the analysis mode, the analyzer version and
    {!feature_key}.  Two tasks with equal digests would produce equal
    reports. *)

(** {1 The request-oriented facade}

    One [service] value owns the answer-one-request path — in-memory warm
    layer, on-disk cache, analyzer, store — so the `ndroid serve` daemon,
    the batch pool's cache pass and [Pool.run_inline] share exactly one
    definition of "hit", "cacheable" and "coalescable".  A service is
    single-process state: the warm layer is what a long-lived daemon
    accumulates across requests.

    In memory an answer is named by its request ({!key}: mode and
    subject), so a warm probe costs one hash of the request.  Only the
    disk cache, which is content-addressed across runs, is keyed by
    {!digest}: a service without a [Cache.t] never computes one.

    A service is domain-safe: one mutex guards the memo table and the
    request counter, held only across table probes — digesting,
    analyzing and disk I/O all run unlocked — so the {!Domain_pool}
    engine's workers share one warm layer without serializing on it.
    The memo table is bounded ([capacity] entries) with second-chance
    eviction, so a long-lived daemon converges on its hottest answers
    instead of growing without limit. *)

type key
(** A request's identity in memory: its mode and subject, never its id.
    Compared and hashed structurally, so it keys a [Hashtbl]. *)

val key : Task.t -> key option
(** [None] for a fault-marked task: a fault means "really run this", so
    such a task is never answered from the warm layer or the disk, never
    stored, and never coalesced with another request. *)

type service

val service : ?cache:Cache.t -> ?capacity:int -> unit -> service
(** Also installs the native-summary persistence hooks on [cache]
    ({!enable_summary_cache}), so create the service before forking any
    workers.  [capacity] bounds the memo table (default 65536). *)

val service_run :
  service -> ?obs:Ndroid_obs.Ring.t -> Task.t ->
  Ndroid_report.Verdict.report * bool
(** Answer one request, from the warm layer or the disk when possible
    ([true] = served from cache), else by {!run} followed by
    {!service_store}.  Counts one request.  Ignores the fault marker
    itself: it is acted on by worker processes, see {!Worker}. *)

val service_find : service -> Task.t -> Ndroid_report.Verdict.report option
(** The probe alone: the warm layer first, then, only when the service
    has a cache, the disk under {!digest} (promoting a hit into the warm
    layer).  [None] for fault-marked tasks.  Does not count a request. *)

val service_store : service -> Task.t -> Ndroid_report.Verdict.report -> unit
(** Store a computed report for its task: the warm layer, and the disk
    under {!digest} when the service has a cache.  Fault-marked tasks and
    [Crashed]/[Timeout] reports are dropped. *)

val service_requests : service -> int

val service_evictions : service -> int
(** Entries evicted from the memo table (second-chance) since the service
    was created. *)

val service_warm_entries : service -> int
(** Reports currently held in the warm layer — bounded by [capacity]. *)
