(** The in-process half of {!Executor}: a fixed set of OCaml 5 domains
    pulling tasks from a mutex-protected {!Shard_queue} (one shard per
    domain, cross-shard stealing preserved), running each through
    {!Worker.analyze} and handing the {!Worker.completion} back through
    shared memory — no fork, no JSON, no pipe.  All domains share the one
    {!Analysis.service} (its own mutex makes that safe), so the warm layer
    deduplicates across workers mid-sweep, and [Analysis.service_run]
    stores each computed report as it returns.

    A batch caller can be one of the workers ([caller_works]): it then
    runs queued tasks itself inside {!wait}, through the same
    {!Worker.analyze} body, and the pool spawns one domain fewer.

    A domain shares the process, so fault markers are ignored and there
    is no SIGKILL timeout: a wedged task wedges its domain ({!Engine.Auto}
    routes work needing isolation to fork).  OCaml 5's [Unix.fork] refuses
    once any domain has been spawned, so spawn domains only in a process
    that will not fork afterwards. *)

type t

type completion = Worker.completion

val create :
  ?domains:int -> ?caller_works:bool -> service:Analysis.service -> unit -> t
(** Start [domains] (default 1) workers over [service], capped at
    [Domain.recommended_domain_count ()] — and the cap counts the caller:
    domains share one runtime, so every domain beyond the cores, a parked
    one too, multiplies stop-the-world minor-GC synchronization instead
    of adding throughput (forked workers, with their private heaps, have
    no such ceiling).  With [caller_works] (default [false]) the calling
    domain is one of those workers, so one domain fewer is spawned (none
    for a single worker) and {!wait} runs tasks on the caller; it must
    then be the only domain that calls {!wait}.  {!domains} reports the
    count spawned. *)

val submit : t -> ticket:int -> ?trace:int -> Task.t -> unit
(** Enqueue one task; returns immediately.  Tickets are the caller's
    correlation ids and need not be dense.  [trace] (a throttle window,
    event-seq units) makes the task tap its ring and return the
    surviving events on its completion.  Raises [Invalid_argument] after
    {!shutdown}. *)

val wait : t -> completion list
(** Block until something completes (or nothing is in flight), and take
    everything completed so far, oldest first.  A working caller first
    runs one queued task itself whenever nothing has completed, so it
    parks only once the queue is empty. *)

val drain : t -> completion list
(** Nonblocking {!wait} that never runs a task: take whatever has
    completed, oldest first.  Pair with {!notify_fd} in a select loop
    (the daemon). *)

val notify_fd : t -> Unix.file_descr
(** Readable whenever completions may be pending; {!drain} empties it. *)

val domains : t -> int
(** Domains spawned: the worker count, less one if the caller works. *)

val steals : t -> int
(** Cross-shard steals performed by idle workers. *)

val metrics : t -> Ndroid_obs.Metrics.t list
(** One obs registry per worker, a working caller included, accumulated
    over its lifetime (tasks, task_seconds, task_bytecodes, analyzer
    counters).  Merge them with {!Ndroid_obs.Metrics.merge} once nothing
    is in flight — reading while workers are mid-task can observe a
    half-updated histogram. *)

val shutdown : t -> unit
(** Stop accepting work, wake every idle domain and join them all.  Tasks
    still queued are abandoned; a task mid-analysis completes first (and
    its completion is discarded with the pool). *)
