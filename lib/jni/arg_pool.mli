(** A reusable push-buffer for JNI argument marshaling.

    The seed bridge built every Java→native slot vector and native→Java
    argument vector out of intermediate lists ([List.map2] + [List.concat] +
    [Array.of_list]) on every crossing.  A pool replaces all of that with
    pushes into one growable buffer that belongs to the device and lives for
    its whole lifetime; {!emit} then produces the single exactly-sized array
    the call consumes.

    Discipline for nested crossings (Java → native → Java → …): call
    {!reset}, push, then {!emit} {e before} transferring control — the
    emitted array is independent of the buffer, so re-entrant crossings can
    reuse the pool freely. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy] makes an empty pool; [dummy] fills unused slots. *)

val reset : 'a t -> unit
(** Empty the pool (keeps the backing store). *)

val push : 'a t -> 'a -> unit
(** Append, growing the backing store geometrically when full. *)

val emit : 'a t -> 'a array
(** The pushed elements as a fresh exactly-sized array — the only per-call
    allocation left on the marshaling path. *)
