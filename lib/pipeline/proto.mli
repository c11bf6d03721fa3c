(** The service protocol: typed request/response messages over {!Wire}'s
    tagged frames (currently v2).

    A client submits analysis requests ([Submit]) on the daemon's Unix
    socket and reads a stream of responses: at most one terminal
    [Verdict] or [Shed] per request (matched by the client-chosen [req]
    id, echoed back), with non-terminal [Progress] — and, for tracing
    clients, [Trace] — notes in between.  Payloads are canonical JSON
    reusing the {!Ndroid_report} codecs — the [report] member of a
    [Verdict] is byte-identical to the corresponding element of
    `ndroid analyze --json` output, and [Trace] events ride the
    {!Ndroid_obs.Stream.event_json} codec shared with the `--trace`
    JSONL exporter.

    The version byte under every message (see {!Wire.parse_tagged})
    makes a stale client a decisive error, never a silent misparse. *)

type submit = {
  sb_req : int;  (** client-chosen id, echoed on every response *)
  sb_subject : Task.subject;
  sb_mode : Task.mode;
  sb_deadline : float option;
      (** per-request wall-clock budget, seconds; the server's default
          applies when absent *)
  sb_fault : Task.fault option;
      (** injected worker misbehaviour — service-layer tests and bench
          only.  Fault-marked requests are never answered from (or
          stored into) the cache. *)
  sb_trace : bool;
      (** stream this request's own events back as [Trace] frames
          (req-matched) before the terminal response *)
}

type subscribe = {
  su_cats : string list;  (** {!Ndroid_obs.Event.category} names; [[]] = all *)
  su_app : string option;  (** anchored regex over app names, [None] = all *)
  su_window : int;  (** per-(method, kind) throttle window, seq units *)
}

type trace = {
  tc_req : int;  (** the requesting client's id, or [-1] on broadcast *)
  tc_app : string;
  tc_events : Ndroid_obs.Stream.event list;
  tc_dropped : int;  (** cumulative throttle-suppressed, this stream *)
  tc_lost : int;  (** cumulative shed to wraparound/backpressure *)
}

type message =
  | Submit of submit  (** client → server *)
  | Subscribe of subscribe
      (** client → server: turn this connection into a live trace
          subscriber; every analysis the daemon runs fans matching
          events back as broadcast [Trace] frames *)
  | Verdict of { vd_req : int;
                 vd_cached : bool;  (** answered from the warm cache *)
                 vd_seconds : float;
                     (** analysis seconds (0 if cached); for a [Crashed] or
                         [Timeout] verdict, the seconds from dispatch to
                         the worker's death or kill, as the batch charges
                         them to [task_seconds] *)
                 vd_report : Ndroid_report.Verdict.report }
      (** terminal response: the analysis result *)
  | Progress of { pg_req : int; pg_state : string; pg_depth : int }
      (** non-terminal note, e.g. ["queued"] with the client's queue
          depth at admission *)
  | Trace of trace
      (** non-terminal: a bounded batch of events from a running (or
          just-finished) analysis.  Never blocks analysis: a slow
          subscriber sheds frames, counted in [tc_lost]. *)
  | Shed of { sh_req : int; sh_reason : string }
      (** terminal response: admission refused the request (queue at
          capacity).  Resubmit later — shedding is the overload contract,
          the daemon never stalls or silently drops. *)
  | Error of string  (** protocol-level failure; the connection closes *)

val to_frame : message -> bytes
(** Complete wire bytes (length header + version + tag + payload) — for
    the server's buffered per-client writes. *)

val write : Unix.file_descr -> message -> unit
(** Encode and write, blocking, retrying short writes. *)

val of_frame : string -> (message, string) result
(** Decode a frame payload as returned by {!Wire.read_frame} /
    {!Wire.drain}.  Protocol-version mismatches surface here. *)

(** Blocking client used by `ndroid submit`, the tests and the bench.
    One connection, synchronous sends, blocking receives; pipelining is
    the caller's choice (send many submits, then collect). *)
module Client : sig
  type t

  val connect : ?retry_for:float -> string -> (t, string) result
  (** Connect to the daemon's socket at that path.  [retry_for] keeps
      retrying for up to that many seconds while the socket does not
      exist or refuses — for racing a daemon that is still starting. *)

  val fd : t -> Unix.file_descr
  val send : t -> message -> unit
  val recv : t -> (message, string) result
  (** Next message, blocking.  [Error] on EOF or a malformed frame. *)

  val close : t -> unit
end
