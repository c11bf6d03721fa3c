module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics
module Stream = Ndroid_obs.Stream

type completion = Worker.completion

type job = {
  j_ticket : int;
  j_task : Task.t;
  j_deadline : float option;  (* budget in seconds, from dispatch *)
  j_trace : int option;
}

(* One forked worker; cell [i] of the slot array pops queue shard [i].  A
   dead one is replaced in its cell, never revived, so every slot in the
   array is alive between calls. *)
type slot = {
  sl_pid : int;
  sl_task_w : Unix.file_descr;
  sl_result_r : Unix.file_descr;
  sl_reader : Wire.reader;
  mutable sl_job : job option;
  mutable sl_started : float;  (* dispatch time of the job *)
  mutable sl_deadline : float;  (* infinity = none *)
}

type forked = {
  mutable f_slots : slot array;
  f_queue : job Shard_queue.t;
  mutable f_next_shard : int;  (* round-robin deal over worker shards *)
  f_close_in_child : unit -> Unix.file_descr list;
  f_prev_sigpipe : Sys.signal_behavior;
}

type engine = Forked of forked | In_process of Domain_pool.t

type counters = {
  crashed : int;
  timeouts : int;
  respawns : int;
  kills : int;
  steals : int;
  fork_seconds : float;
  wire_seconds : float;
  metrics : Metrics.t list;
}

let zero_counters =
  { crashed = 0; timeouts = 0; respawns = 0; kills = 0; steals = 0;
    fork_seconds = 0.0; wire_seconds = 0.0; metrics = [] }

type t = {
  engine : engine;
  service : Analysis.service;
  jobs : int;
  own : Metrics.t;  (* merged result frames, lost tasks *)
  mutable outstanding : int;  (* submitted, not yet returned *)
  mutable k : counters;  (* [steals] and [metrics] filled at shutdown *)
}

let now () = Unix.gettimeofday ()
let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let status_message = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with status %d" n
  | Unix.WSIGNALED n when n = Sys.sigkill -> "worker killed by SIGKILL"
  | Unix.WSIGNALED n when n = Sys.sigsegv -> "worker killed by SIGSEGV"
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

(* ---- the forked engine ---- *)

(* the worker for cell [i] (the cell's old tenant, if any, is dead) *)
let spawn t f i =
  let t0 = now () in
  let task_r, task_w = Unix.pipe () in
  let result_r, result_w = Unix.pipe () in
  let inherited = ref (f.f_close_in_child ()) in
  Array.iteri
    (fun k sl ->
      if k <> i then inherited := sl.sl_task_w :: sl.sl_result_r :: !inherited)
    f.f_slots;
  match Unix.fork () with
  | 0 ->
    (* a worker holding a sibling's or a client's descriptor would mask
       that peer's EOF from the parent *)
    List.iter close !inherited;
    Unix.close task_w;
    Unix.close result_r;
    Worker.loop task_r result_w;
    assert false
  | pid ->
    Unix.close task_r;
    Unix.close result_w;
    t.k <- { t.k with fork_seconds = t.k.fork_seconds +. (now () -. t0) };
    { sl_pid = pid; sl_task_w = task_w; sl_result_r = result_r;
      sl_reader = Wire.create_reader (); sl_job = None; sl_started = 0.0;
      sl_deadline = infinity }

let sigkill sl = try Unix.kill sl.sl_pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap sl =
  close sl.sl_task_w;
  close sl.sl_result_r;
  match Unix.waitpid [] sl.sl_pid with
  | _, status -> status_message status
  | exception Unix.Unix_error _ -> "worker vanished"

let add_wire t t0 =
  t.k <- { t.k with wire_seconds = t.k.wire_seconds +. (now () -. t0) }

let dispatch t sl j =
  sl.sl_job <- Some j;
  sl.sl_started <- now ();
  sl.sl_deadline <-
    (match j.j_deadline with
     | Some d -> sl.sl_started +. d
     | None -> infinity);
  (* the ticket travels as the task id and comes back on the frame; the
     trace window rides as an extra member {!Task.of_json} ignores *)
  let task = Task.to_json { j.j_task with Task.t_id = j.j_ticket } in
  let payload =
    match (j.j_trace, task) with
    | Some w, Json.Obj fields -> Json.Obj (fields @ [ ("trace", Json.Int w) ])
    | _, json -> json
  in
  (try Wire.write_frame sl.sl_task_w (Json.to_string payload)
   with Unix.Unix_error _ ->
     (* already dead: the EOF that follows resolves the job *)
     ());
  add_wire t sl.sl_started

let pump t f =
  Array.iteri
    (fun shard sl ->
      if sl.sl_job = None then
        match Shard_queue.pop f.f_queue ~shard with
        | Some j -> dispatch t sl j
        | None -> ())
    f.f_slots

(* {!Worker.loop}'s result frame: the completion and the task's metrics
   registry *)
let decode_frame payload =
  let ( let* ) = Option.bind in
  let* j = Result.to_option (Json.of_string payload) in
  let* ticket = Option.bind (Json.member "id" j) Json.int in
  let* report = Json.member "report" j in
  let* report = Result.to_option (Verdict.report_of_json report) in
  let int name =
    Option.value ~default:0 (Option.bind (Json.member name j) Json.int)
  in
  let seconds =
    match Json.member "seconds" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let events =
    Option.value ~default:[] (Option.bind (Json.member "events" j) Json.list)
    |> List.filter_map (fun e -> Result.to_option (Stream.event_of_json e))
  in
  Some
    ( { Worker.ticket; report; seconds; events; dropped = int "dropped";
        lost = int "lost" },
      Json.member "metrics" j )

(* A result frame for the slot's job resolves it; anything else (a stale
   or garbled frame) is dropped. *)
let on_frame t sl payload =
  let t0 = now () in
  let c =
    match (decode_frame payload, sl.sl_job) with
    | Some (c, metrics), Some j when c.Worker.ticket = j.j_ticket ->
      Option.iter (Metrics.merge_json t.own) metrics;
      sl.sl_job <- None;
      sl.sl_deadline <- infinity;
      Some (c, j.j_task)
    | _ -> None
  in
  add_wire t t0;
  Option.map
    (fun (c, task) ->
      Analysis.service_store t.service task c.Worker.report;
      c)
    c

(* The worker in cell [i] is gone (reaped by the caller): resolve its job
   with [verdict], charging the time since dispatch, and refill the
   cell. *)
let replace t f i verdict =
  let sl = f.f_slots.(i) in
  let lost =
    Option.map
      (fun j ->
        let seconds = Float.max 0.0 (now () -. sl.sl_started) in
        Metrics.incr (Metrics.counter t.own "tasks");
        Metrics.observe (Metrics.histogram t.own "task_seconds") seconds;
        (match verdict with
         | Verdict.Timeout ->
           t.k <- { t.k with timeouts = t.k.timeouts + 1 };
           Metrics.incr (Metrics.counter t.own "worker_timeouts")
         | _ ->
           t.k <- { t.k with crashed = t.k.crashed + 1 };
           Metrics.incr (Metrics.counter t.own "worker_crashes"));
        { Worker.ticket = j.j_ticket;
          report =
            { Verdict.r_app = Task.subject_name j.j_task.Task.t_subject;
              r_analysis = Task.mode_name j.j_task.Task.t_mode;
              r_verdict = verdict;
              r_meta = [] };
          seconds; events = []; dropped = 0; lost = 0 })
      sl.sl_job
  in
  f.f_slots.(i) <- spawn t f i;
  t.k <- { t.k with respawns = t.k.respawns + 1 };
  lost

let collect_forked t f readable =
  let out = ref [] in
  let emit = Option.iter (fun c -> out := c :: !out) in
  Array.iteri
    (fun i sl ->
      if List.mem sl.sl_result_r readable then
        match Wire.drain sl.sl_reader sl.sl_result_r with
        | `Frames frames -> List.iter (fun p -> emit (on_frame t sl p)) frames
        | `Eof frames ->
          List.iter (fun p -> emit (on_frame t sl p)) frames;
          let why = reap sl in
          emit (replace t f i (Verdict.Crashed why))
        | `Oversized frames ->
          (* nothing more from this worker can be read *)
          List.iter (fun p -> emit (on_frame t sl p)) frames;
          sigkill sl;
          ignore (reap sl);
          emit
            (replace t f i (Verdict.Crashed "worker sent an oversized frame")))
    f.f_slots;
  let t_now = now () in
  Array.iteri
    (fun i sl ->
      if sl.sl_deadline <= t_now then begin
        sigkill sl;
        ignore (reap sl);
        emit (replace t f i Verdict.Timeout)
      end)
    f.f_slots;
  pump t f;
  List.rev !out

(* ---- the engine-independent surface ---- *)

let create ?(close_in_child = fun () -> []) ~caller_works engine ~jobs
    service =
  let jobs = max 1 jobs in
  let make engine =
    { engine; service; jobs; own = Metrics.create (); outstanding = 0;
      k = zero_counters }
  in
  match engine with
  | Engine.Auto -> invalid_arg "Executor.create: resolve the engine first"
  | Engine.Domains ->
    let dp = Domain_pool.create ~domains:jobs ~caller_works ~service () in
    let t = make (In_process dp) in
    Metrics.add (Metrics.counter t.own "domains") (Domain_pool.domains dp);
    t
  | Engine.Fork ->
    let f =
      { f_slots = [||]; f_queue = Shard_queue.create_empty ~shards:jobs ();
        f_next_shard = 0; f_close_in_child = close_in_child;
        f_prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore }
    in
    let t = make (Forked f) in
    for i = 0 to jobs - 1 do
      f.f_slots <- Array.append f.f_slots [| spawn t f i |]
    done;
    t

let isolated t = match t.engine with Forked _ -> true | In_process _ -> false

let submit t ~ticket ?deadline ?trace task =
  t.outstanding <- t.outstanding + 1;
  match t.engine with
  | In_process dp -> Domain_pool.submit dp ~ticket ?trace task
  | Forked f ->
    let shard = f.f_next_shard in
    f.f_next_shard <- (shard + 1) mod Array.length f.f_slots;
    let job =
      { j_ticket = ticket; j_task = task; j_deadline = deadline;
        j_trace = trace }
    in
    ignore (Shard_queue.push f.f_queue ~shard job);
    pump t f

let idle t = max 0 (t.jobs - t.outstanding)

let fds t =
  match t.engine with
  | In_process dp -> [ Domain_pool.notify_fd dp ]
  | Forked f -> Array.to_list (Array.map (fun sl -> sl.sl_result_r) f.f_slots)

let timeout t =
  match t.engine with
  | In_process _ -> 0.5
  | Forked f ->
    let next =
      Array.fold_left (fun acc sl -> Float.min acc sl.sl_deadline) infinity
        f.f_slots
    in
    Float.max 0.0 (Float.min 0.5 (next -. now ()))

let returned t cs =
  t.outstanding <- t.outstanding - List.length cs;
  cs

let collect t readable =
  returned t
    (match t.engine with
     (* the notify descriptor only wakes the select: drain every turn *)
     | In_process dp -> Domain_pool.drain dp
     | Forked f -> collect_forked t f readable)

let rec wait t =
  if t.outstanding = 0 then []
  else
    match t.engine with
    | In_process dp -> returned t (Domain_pool.wait dp)
    | Forked _ -> (
      let readable, _, _ =
        try Unix.select (fds t) [] [] (timeout t)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      match collect t readable with [] -> wait t | cs -> cs)

let kill_one t =
  match t.engine with
  | In_process _ -> ()
  | Forked f ->
    (* death is then observed as EOF, exactly like a real crash *)
    sigkill f.f_slots.(0);
    t.k <- { t.k with kills = t.k.kills + 1 }

let shutdown t =
  let steals, workers =
    match t.engine with
    | In_process dp ->
      let steals = Domain_pool.steals dp in
      Domain_pool.shutdown dp;
      (steals, Domain_pool.metrics dp)
    | Forked f ->
      Array.iter
        (fun sl ->
          sigkill sl;
          ignore (reap sl))
        f.f_slots;
      ignore (Sys.signal Sys.sigpipe f.f_prev_sigpipe);
      (Shard_queue.steals f.f_queue, [])
  in
  { t.k with steals; metrics = t.own :: workers }
