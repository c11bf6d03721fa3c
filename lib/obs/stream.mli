(** Live trace streaming: tap a worker's {!Ring} into bounded, throttled
    batches of immutable events fit for the wire.

    Three layers, each shed-never-stall:

    - a canonical per-event JSON codec ({!event_json} / {!event_of_json})
      shared with {!Export}'s JSONL writer, so file lines and streamed
      lines never diverge;
    - per-(method, kind) throttle windows on the ring's deterministic
      event-seq clock (one event per key per window passes; terminal
      kinds — {!Event.K_source}, {!Event.K_sink} — always pass), with an
      explicit {!dropped} count of exactly the suppressed events;
    - a cursor-based {!tap} that drains only what wraparound has not yet
      reclaimed, counting the reclaimed prefix as {!tap_missed}. *)

type event = {
  ev_seq : int;
  ev_kind : Event.kind;
  ev_name : string;
  ev_detail : string;
  ev_addr : int;
  ev_taint : int;
  ev_insn : string;  (** rendered instruction; [""] unless [K_insn] *)
}

val of_record : Event.record -> event
(** Snapshot a live mutable ring cell into an immutable event. *)

val event_json : event -> Ndroid_report.Json.t
(** The one per-event codec; {!Export.event_json} delegates here. *)

val event_of_json : Ndroid_report.Json.t -> (event, string) result

val render : event -> string option
(** {!Event.render} vocabulary over a decoded wire event. *)

val terminal : Event.kind -> bool
(** Kinds that bypass throttling and are never dropped by it. *)

(** {1 Throttling} *)

type throttle

val throttle : window:int -> throttle
(** [window] in event-seq units (the ring's deterministic clock, one event
    = one microsecond for `--throttle-ms`); [window <= 0] disables. *)

val admit : throttle -> event -> bool
(** [true] if the event passes: throttling disabled, terminal kind, first
    of its (name, kind) key, seq clock restarted, or a full window elapsed
    since the key last passed.  [false] increments {!dropped}. *)

val dropped : throttle -> int
(** Exactly the events refused by {!admit} so far. *)

(** {1 Tapping a ring} *)

type tap

val tap : ?window:int -> unit -> tap

val drain : tap -> Ring.t -> event list
(** Collect everything emitted since the previous drain that is still in
    the ring, in seq order, throttled.  Events reclaimed by wraparound
    before the drain add to {!tap_missed}.  A cleared ring (seq clock
    restart) resets the cursor, not the counters. *)

val tap_dropped : tap -> int
(** Throttle-suppressed events over the tap's life. *)

val tap_missed : tap -> int
(** Events lost to ring wraparound before a drain could read them. *)
