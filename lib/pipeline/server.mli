(** The analysis daemon: a persistent server loop behind a Unix socket,
    speaking the {!Proto} request/response protocol.

    Where {!Pool.run} answers "run this corpus once", [serve] answers
    "keep answering analysis requests": workers stay alive, the warm
    report layer and native-summary cache stay warm in-process, and every
    [Submit] frame becomes exactly one terminal response — a [Verdict]
    (streamed as soon as it exists, cache hits immediately at admission)
    or a [Shed] when the bounded queue is full.  Overload degrades by
    refusing loudly, never by stalling or dropping.

    {b Engines.}  Analyses run on one {!Executor} — the batch's — for the
    daemon's whole life, so one {!Engine} too (the two cannot share a
    process: [Unix.fork] refuses once a domain exists).  [Fork] keeps
    persistent worker processes: crash isolation, per-request deadlines,
    fault injection.  A worker crashing (or overrunning its deadline and
    being killed) yields a [Crashed] / [Timeout] verdict for that one
    request and is replaced; the daemon itself never dies with a worker.
    [Domains] keeps worker domains over a shared {!Analysis.service}: no
    fork, no wire marshaling — but a submit that needs isolation (a fault
    marker or a per-request deadline) is {e shed} with an explanatory
    reason rather than silently mis-served.  [Auto] resolves at startup:
    fork iff a default deadline was configured, domains otherwise.

    {b Single-flight.}  Admission coalesces concurrent misses of one
    request (same mode and subject, {!Analysis.key}): the first [Submit]
    queues the analysis, colliding ones attach as waiters (answered with
    a ["coalesced"] [Progress]) and the one verdict fans out to every
    waiter.  A thundering herd of identical requests costs one analysis,
    under either engine.  Admission computes no digest; only a daemon
    with a cache does, to probe and fill the disk.

    Fairness: admission queues each request on its client's
    {!Shard_queue} shard, and dispatch drains shards round-robin, one
    request per idle worker, so a client saturating the daemon delays
    its own requests, not its neighbours'.

    {b Streaming.}  A connection that sends [Subscribe] becomes a live
    trace subscriber: while any subscriber (or a [Submit] with its trace
    flag) is attached, dispatched tasks carry a throttle window, the
    workers tap their obs rings ({!Ndroid_obs.Stream}), and the daemon
    fans the surviving events out as [Trace] frames — filtered and
    throttled per subscriber, through the same nonblocking buffered
    writes as everything else.  A subscriber that cannot keep up has
    whole trace frames shed (counted in [sv_trace_lost] and on the
    frames' cumulative counters); analyses are never blocked, and
    verdicts are never shed by the stream bound. *)

type config = {
  s_socket : string;  (** Unix-domain socket path; unlinked on shutdown *)
  s_jobs : int;  (** persistent worker processes or domains *)
  s_cache : Cache.t option;
      (** disk cache behind the warm layer, shared across runs *)
  s_depth : int;  (** max queued (not yet dispatched) requests — the
                      admission bound; beyond it, [Shed] *)
  s_max_clients : int;  (** concurrent connections (= queue shards) *)
  s_deadline : float option;  (** default per-request budget, seconds
                                  (forces the forked engine) *)
  s_engine : Engine.t;  (** resolved once at startup; see above *)
  s_stream_buf : int;
      (** max buffered outbound bytes per client before a {e trace} frame
          is shed instead of queued (verdicts are never shed by this
          bound) — the slow-subscriber backpressure valve *)
  s_log : (string -> unit) option;  (** lifecycle lines (stderr in the CLI) *)
  s_stop : (unit -> bool) option;
      (** extra stop condition polled each loop turn (≤ 0.5 s latency) —
          lets a test host the daemon in a domain and stop it without
          signals *)
}

val config :
  socket:string -> ?jobs:int -> ?cache:Cache.t -> ?depth:int ->
  ?max_clients:int -> ?deadline:float -> ?engine:Engine.t ->
  ?stream_buf:int -> ?log:(string -> unit) -> ?stop:(unit -> bool) -> unit ->
  config
(** [engine] defaults to {!Engine.Fork} (library compatibility; the CLI
    passes [auto]); [stream_buf] to 256 KiB.
    @raise Invalid_argument on [~engine:Domains] with a [deadline] — a
    deadline is only enforceable by killing a forked worker. *)

type stats = {
  sv_requests : int;  (** [Submit] frames admitted or shed *)
  sv_served : int;  (** terminal [Verdict]s delivered, counting each
                        coalesced waiter (incl. crash/timeout) *)
  sv_cache_hits : int;  (** verdicts answered at admission, no dispatch *)
  sv_coalesced : int;  (** submits attached to an already-pending entry —
                           requests served minus analyses paid for *)
  sv_analyses : int;  (** analyses actually executed to a terminal state
                          (runs + crashes + timeouts); the single-flight
                          invariant is [sv_served = sv_cache_hits +
                          sv_coalesced + … per-entry fan-out] with one
                          analysis per distinct in-flight request *)
  sv_shed : int;  (** requests refused (depth bound, or isolation needs
                      under the domain engine) *)
  sv_crashed : int;  (** workers that died mid-request (forked engine) *)
  sv_timeouts : int;  (** requests killed at their deadline (forked) *)
  sv_respawns : int;  (** workers replaced after a death or a deadline kill *)
  sv_evictions : int;  (** warm-layer memo evictions over the lifetime *)
  sv_clients : int;  (** connections accepted over the lifetime *)
  sv_subscribers : int;  (** [Subscribe] frames accepted over the lifetime *)
  sv_trace_events : int;
      (** events received from the engines' taps (before per-subscriber
          filtering) *)
  sv_trace_dropped : int;
      (** events suppressed by throttle windows — worker-side taps plus
          per-subscriber fan-out throttles *)
  sv_trace_lost : int;
      (** events shed rather than delivered: ring wraparound before the
          tap drained, plus whole trace frames refused by a slow
          subscriber's outbound bound.  Never blocks an analysis. *)
}

val serve : config -> stats
(** Run the daemon until SIGTERM or SIGINT (or [s_stop] returns [true]),
    then shut down in order — pending client output flushed, workers
    buried (forked) or joined (domains), socket closed and unlinked,
    previous signal dispositions restored — and report what was
    served. *)
