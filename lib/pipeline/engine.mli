(** Which worker engine an {!Executor} runs for cache-missing tasks.

    [Fork]: one process per worker, tasks and verdicts marshaled over
    {!Wire} pipes.  It is the only engine that can act on injected fault
    markers or SIGKILL an overrunning task, because the unit of isolation
    is a process.

    [Domains] ({!Domain_pool}): one OCaml 5 domain per worker, sharing the
    {!Analysis.service} warm layer, with no fork, no serialization and no
    parent-side reassembly on the per-task path.  Domains cannot be
    SIGKILLed, so fault markers and wall-clock budgets are not enforceable
    there.

    [Auto] picks per run: fork when the work needs process isolation
    (faults to act on, a timeout to enforce), domains otherwise.  The
    engines never mix within a process — OCaml 5's [Unix.fork] refuses
    to run once any domain has been spawned. *)

type t = Fork | Domains | Auto

val name : t -> string
val of_name : string -> (t, string) result

val resolve : t -> needs_isolation:bool -> t
(** Never returns [Auto]. *)
