module Metrics = Ndroid_obs.Metrics
module Ring = Ndroid_obs.Ring

type completion = Worker.completion

type t = {
  dp_service : Analysis.service;
  dp_lock : Mutex.t;
  dp_work : Condition.t;  (* signaled on submit and shutdown *)
  dp_done : Condition.t;  (* broadcast on every completion *)
  dp_queue : (int * int option * Task.t) Shard_queue.t;
  mutable dp_next_shard : int;  (* round-robin deal over worker shards *)
  mutable dp_completed : completion list;  (* newest first *)
  mutable dp_inflight : int;  (* submitted, not yet in dp_completed *)
  mutable dp_stop : bool;
  dp_notify_r : Unix.file_descr;
  dp_notify_w : Unix.file_descr;
  dp_metrics : Metrics.t array;  (* one registry per worker *)
  dp_caller : Ring.t option;  (* the caller's ring, if it works in [wait] *)
  mutable dp_workers : unit Domain.t array;
}

(* One byte down the self-pipe per completion: a select()-driven
   caller (the daemon) learns of domain completions the same way it
   learns of worker frames, without polling.  Both ends are nonblocking;
   a full pipe just means a wakeup is already pending. *)
let notify t =
  try ignore (Unix.write t.dp_notify_w (Bytes.unsafe_of_string "!") 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain_notify t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.dp_notify_r buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* The task body is {!Worker.analyze}, as in a forked worker, but the
   report returns by reference through shared memory: no fork, no JSON,
   no pipe, no parse.  Fault markers are not acted on (a domain cannot
   crash or be killed in isolation); the {!Engine.Auto} policy routes
   fault-bearing work to the forked engine instead. *)
let analyze t ring (ticket, trace, task) =
  Worker.analyze ~service:t.dp_service ~ring ?trace ~ticket task

(* with the lock held *)
let complete t c =
  t.dp_completed <- c :: t.dp_completed;
  t.dp_inflight <- t.dp_inflight - 1;
  Condition.broadcast t.dp_done

let worker_loop t shard ring =
  let rec next () =
    Mutex.lock t.dp_lock;
    let rec claim () =
      if t.dp_stop then begin
        Mutex.unlock t.dp_lock;
        None
      end
      else
        match Shard_queue.pop t.dp_queue ~shard with
        | Some job ->
          Mutex.unlock t.dp_lock;
          Some job
        | None ->
          Condition.wait t.dp_work t.dp_lock;
          claim ()
    in
    match claim () with
    | None -> ()
    | Some job ->
      let c = analyze t ring job in
      Mutex.lock t.dp_lock;
      complete t c;
      Mutex.unlock t.dp_lock;
      notify t;
      next ()
  in
  next ()

let create ?(domains = 1) ?(caller_works = false) ~service () =
  (* cap at the runtime's recommendation (≈ cores), the caller included:
     forked workers win by overlapping blocked time, but domains share one
     runtime — every domain beyond the core count, a parked one too,
     multiplies stop-the-world minor-GC synchronization instead of adding
     throughput *)
  let workers = max 1 (min domains (Domain.recommended_domain_count ())) in
  (* one obs ring and one metrics registry per worker for its whole life —
     a fresh 4096-slot ring per task is most of the forked engine's
     per-task cost, and per-task registries would make the collector
     merge thousands of tables *)
  let rings = Array.init workers (fun _ -> Ring.create ~capacity:4096 ()) in
  let notify_r, notify_w = Unix.pipe () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let t =
    { dp_service = service;
      dp_lock = Mutex.create ();
      dp_work = Condition.create ();
      dp_done = Condition.create ();
      dp_queue = Shard_queue.create_empty ~shards:workers ();
      dp_next_shard = 0;
      dp_completed = [];
      dp_inflight = 0;
      dp_stop = false;
      dp_notify_r = notify_r;
      dp_notify_w = notify_w;
      dp_metrics = Array.map Ring.metrics rings;
      (* a working caller takes the last ring and pops the last shard *)
      dp_caller = (if caller_works then Some rings.(workers - 1) else None);
      dp_workers = [||] }
  in
  let spawned = if caller_works then workers - 1 else workers in
  t.dp_workers <-
    Array.init spawned (fun i ->
        Domain.spawn (fun () -> worker_loop t i rings.(i)));
  t

let domains t = Array.length t.dp_workers
let notify_fd t = t.dp_notify_r

let submit t ~ticket ?trace task =
  Mutex.lock t.dp_lock;
  if t.dp_stop then begin
    Mutex.unlock t.dp_lock;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  let shard = t.dp_next_shard in
  t.dp_next_shard <- (shard + 1) mod Shard_queue.shards t.dp_queue;
  ignore (Shard_queue.push t.dp_queue ~shard (ticket, trace, task));
  t.dp_inflight <- t.dp_inflight + 1;
  Condition.signal t.dp_work;
  Mutex.unlock t.dp_lock

let take_completed t =
  let cs = List.rev t.dp_completed in
  t.dp_completed <- [];
  cs

let drain t =
  drain_notify t;
  Mutex.lock t.dp_lock;
  let cs = take_completed t in
  Mutex.unlock t.dp_lock;
  cs

(* the next task for a working caller (its own shard, else steal), with
   the lock held *)
let caller_job t =
  match t.dp_caller with
  | None -> None
  | Some ring ->
    Shard_queue.pop t.dp_queue ~shard:(Shard_queue.shards t.dp_queue - 1)
    |> Option.map (fun job -> (ring, job))

(* A working caller runs a queued task whenever nothing awaits
   collection, and parks only once the queue is empty: then just the
   spawned domains' last in-flight tasks remain.  A parked domain beside
   busy workers is not free — every stop-the-world minor collection must
   wake its backup thread on a core the workers already fill. *)
let wait t =
  Mutex.lock t.dp_lock;
  while t.dp_completed = [] && t.dp_inflight > 0 do
    match caller_job t with
    | Some (ring, job) ->
      Mutex.unlock t.dp_lock;
      let c = analyze t ring job in
      Mutex.lock t.dp_lock;
      complete t c
    | None -> Condition.wait t.dp_done t.dp_lock
  done;
  let cs = take_completed t in
  Mutex.unlock t.dp_lock;
  drain_notify t;
  cs

let steals t =
  Mutex.lock t.dp_lock;
  let n = Shard_queue.steals t.dp_queue in
  Mutex.unlock t.dp_lock;
  n

let metrics t = Array.to_list t.dp_metrics

let shutdown t =
  Mutex.lock t.dp_lock;
  t.dp_stop <- true;
  Condition.broadcast t.dp_work;
  Mutex.unlock t.dp_lock;
  Array.iter Domain.join t.dp_workers;
  t.dp_workers <- [||];
  (try Unix.close t.dp_notify_r with Unix.Unix_error _ -> ());
  try Unix.close t.dp_notify_w with Unix.Unix_error _ -> ()
