(** The parent side of both worker engines, shared by the batch
    {!Pool.run} and the {!Server} daemon: the one worker supervision
    loop.

    Callers {!submit} tasks under their own tickets and get back one
    {!completion} per ticket, from {!wait} (blocking, the batch) or from
    {!collect} over {!fds} in their own [select] loop (the daemon).  They
    never see a pid, a pipe, a frame or a domain.

    {b Forked engine} ({!Engine.Fork}): [jobs] worker processes, each
    running {!Worker.loop} with at most one task in flight.  Tasks queue
    on one {!Shard_queue} shard per worker (dealt round-robin, stealing
    when a shard runs dry).  A worker's death — EOF on its result pipe —
    resolves its in-flight task as [Crashed] with the exit status; a blown
    per-task deadline SIGKILLs the worker and resolves the task as
    [Timeout].  Either way the slot is refilled at once with a fresh
    worker: a dead worker is always replaced.  Each child closes every
    sibling's descriptors and whatever [close_in_child] names, so EOFs
    (a dead sibling, a departed client) are never masked.

    {b Domain engine} ({!Engine.Domains}): a {!Domain_pool}.  Deadlines
    and fault markers are not enforceable there and are ignored.  A
    caller that works (the batch) is one of the [jobs] workers: {!wait}
    runs queued tasks on the calling domain, so the executor never holds
    more domains than cores.

    Either way the executor hands every computed report to the
    {!Analysis.service} (a domain worker through {!Analysis.service_run},
    the forked engine through {!Analysis.service_store} as each result
    frame arrives), which decides what to keep, so no caller stores.  A
    [Crashed] or [Timeout] completion carries the seconds since dispatch,
    also charged to the [task_seconds] histogram. *)

type t

type completion = Worker.completion
(** One per submitted ticket; see {!Worker.completion}. *)

val create :
  ?close_in_child:(unit -> Unix.file_descr list) -> caller_works:bool ->
  Engine.t -> jobs:int -> Analysis.service -> t
(** Start [jobs] (>= 1) workers of a resolved engine over [service].
    [caller_works] says the caller blocks in {!wait} and nowhere else (the
    batch): the domain engine then counts the calling domain as one of
    the workers, capped with them at the cores, and spawns one domain
    fewer.  A caller that multiplexes in [select] (the daemon) passes
    [false] and gets [jobs] domains (capped at the cores); the forked
    engine ignores it.  [close_in_child] is called at every fork (initial
    and respawn) and names the caller's descriptors a worker must not
    hold.  Ignores [SIGPIPE] until {!shutdown} under the forked engine.
    @raise Invalid_argument on {!Engine.Auto}. *)

val isolated : t -> bool
(** Whether tasks run in killable worker processes (the forked engine):
    only then are deadlines enforced and fault markers acted on. *)

val submit :
  t -> ticket:int -> ?deadline:float -> ?trace:int -> Task.t -> unit
(** Queue one task; returns at once.  The queue has no bound: a batch's
    tasks are already in memory, and the daemon bounds its own admission
    queue.  [deadline] is a wall-clock budget in seconds from dispatch
    (forked engine only); [trace] a throttle window in event-seq units,
    which makes the worker tap its ring and return the task's events on
    its completion. *)

val idle : t -> int
(** Workers minus submitted tasks not yet returned, floored at 0.  A
    caller that submits only while this is positive keeps its own
    backlog (the daemon's fair queue) and never queues here. *)

val fds : t -> Unix.file_descr list
(** Descriptors to watch for readability in a [select] loop. *)

val timeout : t -> float
(** The [select] timeout: seconds to the nearest deadline, at most
    0.5. *)

val collect : t -> Unix.file_descr list -> completion list
(** After a [select]: read the readable descriptors among {!fds}, enforce
    deadlines, replace dead workers, dispatch queued tasks, and return
    what completed, oldest first. *)

val wait : t -> completion list
(** Block until something completes (or nothing is outstanding) and
    return it.  Under the domain engine with [caller_works], the caller
    runs a queued task whenever nothing has completed and parks only
    once the queue is empty. *)

val kill_one : t -> unit
(** Fault injection: SIGKILL one worker.  Its death then reads exactly
    like a crash.  A no-op under the domain engine. *)

type counters = {
  crashed : int;  (** in-flight tasks lost to a worker's death *)
  timeouts : int;  (** tasks killed at their deadline *)
  respawns : int;  (** workers replaced after a death or a deadline kill *)
  kills : int;  (** workers SIGKILLed by {!kill_one} *)
  steals : int;  (** cross-shard steals in the task queue *)
  fork_seconds : float;  (** forking workers, initial and replacements *)
  wire_seconds : float;
      (** encoding task frames, decoding result frames and merging the
          workers' metrics from them; [0.] under the domain engine *)
  metrics : Ndroid_obs.Metrics.t list;
      (** the workers' obs registries and the executor's own ([tasks] and
          [task_seconds] for lost tasks, [worker_crashes],
          [worker_timeouts], [domains]: the domains spawned) — merge
          them *)
}

val zero_counters : counters
(** The counters of an executor that never started. *)

val shutdown : t -> counters
(** Stop every worker — forked ones are SIGKILLed and reaped, a domain
    mid-task finishes first — and report what the executor did.  Tasks
    not yet returned are abandoned. *)
