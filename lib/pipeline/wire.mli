(** Length-prefixed frames over pipes and sockets.

    Each frame is a 4-byte big-endian length followed by that many payload
    bytes.  The worker side reads blocking whole frames; the parent side
    feeds whatever [read(2)] returned into an incremental {!reader}, so a
    select-driven loop never blocks halfway through a frame a slow (or
    freshly killed) worker only partly wrote.

    Two payload conventions share this framing:
    - {b v0 (bare)}: the payload is the message itself.  The executor's
      task/result pipes speak v0 — parent and workers are always the same
      binary, so no version negotiation is needed on that fast path.
    - {b tagged}: the payload starts with a protocol-version byte and a
      one-byte message tag ({!write_tagged} / {!parse_tagged}).  The
      service socket speaks tagged frames (currently v2), because daemon
      and client can be different binaries: a version mismatch must be
      one decisive error, never a silent misparse. *)

val max_frame : int
(** The longest payload a length prefix may claim: 16 MiB.  The largest
    frame the tests, CI and benchmarks write is about 10 KB, and a result
    frame carrying a task's whole 4096-event ring stays under 1 MiB, so a
    longer claim comes from a hostile or garbled peer; the readers below
    refuse it rather than allocate for it. *)

val write_frame : Unix.file_descr -> string -> unit
(** Whole frame, retrying short writes.  Raises [Unix.Unix_error] (e.g.
    [EPIPE]) if the peer is gone. *)

val read_frame : Unix.file_descr -> string option
(** Blocking read of one whole frame; [None] on clean EOF at a frame
    boundary, on a torn frame (which only happens if the peer died
    mid-write), and on a length prefix over {!max_frame}, refused before
    anything is allocated for its payload. *)

type reader

val create_reader : unit -> reader

val drain : reader -> Unix.file_descr ->
  [ `Frames of string list | `Eof of string list | `Oversized of string list ]
(** One [read(2)] on a descriptor select said is readable; returns every
    frame completed by those bytes (often none or several).  [`Eof] carries
    the final complete frames; a trailing torn frame is discarded.
    [`Oversized] carries the complete frames before a length prefix over
    {!max_frame}: the reader has refused the stream, and every later call
    discards what it reads (returning [`Oversized []] until [`Eof])
    without growing its buffer.  Close the descriptor. *)

(** {1 Tagged frames} *)

val protocol_version : int
(** The service-protocol generation this binary speaks.  Bump on any
    incompatible change to the tagged-frame payloads. *)

val encode_tagged : tag:char -> string -> bytes
(** The complete frame bytes (length header, version byte, [tag] byte,
    payload) — for callers that buffer writes themselves, like the
    server's non-blocking per-client output queues. *)

val write_tagged : Unix.file_descr -> tag:char -> string -> unit
(** [encode_tagged] + blocking write, retrying short writes. *)

val parse_tagged : string -> (char * string, string) result
(** Split a frame (as returned by {!read_frame} / {!drain}) into its tag
    and payload.  [Error] — decisively, with the versions named — if the
    frame is too short or carries a different {!protocol_version}. *)
