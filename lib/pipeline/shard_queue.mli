(** The pipeline's sharded work queue — two consumption disciplines
    over one structure.

    {b Batch (the executor's workers)}: tasks are dealt round-robin across
    one shard per worker ({!create}, or one {!push} per task in turn); a
    worker pops from the front of its own shard ({!pop}) and, when that
    runs dry, steals the back half of the fullest other shard.  Stealing keeps the sweep busy when per-app cost
    is wildly uneven, while the shard-local common case preserves the
    id-ordered scan that makes cache walks and progress output
    predictable.

    {b Service (the daemon)}: the queue starts empty ({!create_empty}),
    bounded at the admission depth, with one shard per client slot;
    admission {!push}es onto the submitting client's shard (refused at
    capacity — the caller sheds), and the dispatcher {!pop_rr}s
    round-robin across non-empty shards, so one client saturating the
    daemon cannot starve the others: every client's oldest request is at
    most one round away. *)

type 'a t

val create : shards:int -> ?capacity:int -> 'a list -> 'a t
(** Deal the items round-robin over [shards] (>= 1) shards.  [capacity]
    bounds the queue (default: no bound).
    @raise Invalid_argument if the item count exceeds [capacity]. *)

val create_empty : shards:int -> ?capacity:int -> unit -> 'a t
(** An empty queue for dynamic admission via {!push}.  [capacity] bounds
    it (default: no bound — a batch's tasks are already in memory). *)

val push : 'a t -> shard:int -> 'a -> bool
(** Append to the back of that shard, O(1) amortized.  [false] — and the
    item is not enqueued — when the queue already holds [capacity] items:
    the daemon's admission bound, which turns overload into explicit
    [Shed] responses instead of unbounded memory growth.  Always [true]
    on an unbounded queue. *)

val pop : 'a t -> shard:int -> 'a option
(** Next item for that shard's worker (own front, else steal).  [None]
    when every shard is empty. *)

val pop_rr : 'a t -> 'a option
(** Next item in round-robin order across non-empty shards, resuming the
    scan after the shard served last — per-client fairness when shards
    are client slots.  Never steals (any consumer serves any shard). *)

val clear_shard : 'a t -> shard:int -> 'a list
(** Drop and return everything queued on that shard (a disconnected
    client's not-yet-dispatched requests). *)

val remaining : 'a t -> int
val shards : 'a t -> int
val shard_depth : 'a t -> shard:int -> int
val steals : 'a t -> int
(** How many times a pop had to steal from a foreign shard. *)
