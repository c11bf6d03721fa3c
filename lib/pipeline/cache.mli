(** On-disk result cache.

    One canonical-JSON report per file, named by the task's
    {!Analysis.digest} — app content + analysis mode + analyzer version —
    so a re-run of an unchanged corpus under an unchanged binary answers
    from disk, and any change to app, mode or analyzer misses cleanly.
    Raw side entries (native taint summaries, keyed by library digest)
    share the directory under their own key namespace.  Every entry is the
    hex MD5 of its bytes, a newline, then those bytes.  Corrupt,
    unreadable or checksum-failing entries count as misses (the sweep then
    simply recomputes and overwrites them), so an altered entry never
    reads as a different report or blob; writes go through a temp file +
    rename so a killed sweep can never leave a torn entry behind. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed. *)

val find : t -> key:string -> Ndroid_report.Verdict.report option
val store : t -> key:string -> Ndroid_report.Verdict.report -> unit

val find_raw : t -> key:string -> string option
(** A raw side entry: the blob as stored, no verdict decoding.  Counts
    toward {!hits}/{!misses}, like {!find}. *)

val store_raw : t -> key:string -> string -> unit
(** Store a raw side entry under [key], checksummed and atomically, like
    {!store}. *)

val hits : t -> int
val misses : t -> int
