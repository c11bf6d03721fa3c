(** Trace exporters over a {!Ring}.

    Two formats:
    - Chrome [trace_event] JSON ([chrome.*.json]), loadable in
      [chrome://tracing] / Perfetto.  Span events are balanced per lane:
      Bs lost to ring wraparound are synthesized before the window and
      spans left open (exception unwinding, end of run) are closed after
      it, so every B has an E.
    - line-delimited JSON ([*.jsonl]): one raw event object per line,
      nothing synthesized.

    Timestamps are the ring's own sequence numbers interpreted as
    microseconds — a deterministic logical clock, not wall time. *)

val chrome_events : Ring.t -> Ndroid_report.Json.t list
val to_chrome_string : Ring.t -> string

val to_jsonl_string : Ring.t -> string
