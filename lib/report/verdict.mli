(** The unified analysis verdict.

    Every analysis path — the static JNI supergraph, the dynamic NDroid
    run, and the batch pipeline driving either — resolves to this one
    variant, with one canonical JSON codec.  [Crashed] and [Timeout] exist
    because a market sweep treats a worker dying on a pathological APK or
    overrunning its per-app budget as first-class results, not as lost
    work. *)

type t =
  | Clean
  | Flagged of Flow.t list  (** at least one source→sink flow *)
  | Crashed of string  (** analysis died; the payload says how *)
  | Timeout  (** per-app wall-clock budget exhausted *)

val normalize : t -> t
(** Canonical form: [Flagged] flows deduplicated and sorted, and
    [Flagged []] collapsed to [Clean].  The codecs below normalize on the
    way out and in, so two verdicts that mean the same thing serialize
    identically. *)

val flagged : t -> bool
val flows : t -> Flow.t list

val equal : t -> t -> bool
(** Up to {!normalize}. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t

(** {1 Per-app reports}

    What the pipeline (and `ndroid analyze --json`) emits per app: the
    verdict plus deterministic metadata (counters, classification).
    Timing never goes here — wall-clock metadata would break the
    bit-identical [--jobs 1] vs [--jobs N] guarantee — it lives in the
    pool's aggregate stats instead. *)

type report = {
  r_app : string;
  r_analysis : string;  (** ["static"], ["dynamic"] or ["both"] *)
  r_verdict : t;
  r_meta : (string * Json.t) list;  (** deterministic counters only *)
}

val report_equal : report -> report -> bool
val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Json.t
val report_of_json : Json.t -> (report, string) result

val reports_to_json : report list -> Json.t
