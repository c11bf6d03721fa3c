(** Leak reporting.

    Sinks (Java-context intrinsics and native-context library calls) call
    {!inspect} with the data about to leave the device and whatever taint
    the active analysis attributes to it.  Which analysis answers — none
    (vanilla), TaintDroid, or NDroid — determines which of the paper's
    Table-I cases get caught; the monitor itself is analysis-neutral. *)

type context = Java_context | Native_context

(** What to do when tainted data reaches a sink.  [Observe] is the paper's
    NDroid (report only); [Block] is the protection mechanism its Sec. VII
    sketches as future work (and AppFence's approach in the related work):
    the leak is recorded {e and} the sink's effect is suppressed or the
    payload scrubbed. *)
type policy = Observe | Block

type leak = {
  sink : string;  (** e.g. ["send"], ["fprintf"], ["Socket.send"] *)
  context : context;
  taint : Ndroid_taint.Taint.t;
  data : string;  (** payload (possibly truncated) *)
  detail : string;  (** destination / path *)
  blocked : bool;  (** the effect was suppressed by the [Block] policy *)
}

type t

val create : unit -> t

val inspect :
  t ->
  sink:string ->
  context:context ->
  taint:Ndroid_taint.Taint.t ->
  data:string ->
  detail:string ->
  unit
(** Record a leak iff [taint] is non-clear (never blocks). *)

val decide :
  t ->
  sink:string ->
  context:context ->
  taint:Ndroid_taint.Taint.t ->
  data:string ->
  detail:string ->
  [ `Allow | `Block ]
(** Like {!inspect}, but the caller is expected to honour the verdict:
    [`Block] iff the data is tainted and the policy is {!Block}. *)

val set_policy : t -> policy -> unit
val policy : t -> policy

val blocked_count : t -> int
(** Leaks whose effect was suppressed. *)

val leaks : t -> leak list
(** Oldest first. *)

val leak_count : t -> int

val pp_leak : Format.formatter -> leak -> unit
