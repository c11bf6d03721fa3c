(** The system-lib hook engine (paper, Sec. V-D).

    Rather than tracing libc/libm instruction by instruction, NDroid models
    the taint behaviour of the popular standard functions (Table VI) —
    Listing 3's [memcpy] handler is the canonical example: copy the source
    bytes' taints onto the destination bytes.  The engine also implements
    the native-context {e sinks} of Table VII: when tainted data reaches
    [send], [sendto], [write], [fwrite], [fputs], [fputc] or [fprintf], the
    leak is reported to the device's sink monitor — the check TaintDroid
    cannot perform (its sinks are Java-only, which is why it misses
    case 2). *)

type t

val attach :
  Ndroid_runtime.Device.t -> Ndroid_emulator.Taint_engine.t -> Flow_log.t -> t

val summaries_applied : t -> int
(** Modeled-function taint summaries executed. *)

val sink_checks : t -> int
(** Sink inspections performed (tainted or not). *)
