(** On-disk result cache.

    One canonical-JSON report per file, named by the task's
    {!Analysis.digest} — app content + analysis mode + analyzer version —
    so a re-run of an unchanged corpus under an unchanged binary answers
    from disk, and any change to app, mode or analyzer misses cleanly.
    A report entry is the hex MD5 of the report bytes, a newline, then
    those bytes.  Corrupt, unreadable or checksum-failing entries count as
    misses (the sweep then simply recomputes and overwrites them), so an
    altered entry never reads as a different report; writes go through a
    temp file + rename so a killed sweep can never leave a torn entry
    behind. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed. *)

val find : t -> key:string -> Ndroid_report.Verdict.report option
val store : t -> key:string -> Ndroid_report.Verdict.report -> unit

val find_raw : t -> key:string -> string option
(** A raw side entry (e.g. a native taint summary keyed by library
    digest): the blob as stored, no verdict decoding.  Counts toward
    {!hits}/{!misses}. *)

val store_raw : t -> key:string -> string -> unit
(** Store a raw side entry under [key], atomically (temp file +
    rename), like {!store}. *)

val hits : t -> int
val misses : t -> int
