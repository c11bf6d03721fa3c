module Verdict = Ndroid_report.Verdict
module Event = Ndroid_obs.Event
module Stream = Ndroid_obs.Stream

type config = {
  s_socket : string;
  s_jobs : int;
  s_cache : Cache.t option;
  s_depth : int;
  s_max_clients : int;
  s_deadline : float option;
  s_engine : Engine.t;
  s_stream_buf : int;
  s_log : (string -> unit) option;
  s_stop : (unit -> bool) option;
}

let config ~socket ?(jobs = 1) ?cache ?(depth = 256) ?(max_clients = 16)
    ?deadline ?(engine = Engine.Fork) ?(stream_buf = 262144) ?log ?stop () =
  if depth < 1 then invalid_arg "Server.config: depth must be >= 1";
  if max_clients < 1 then invalid_arg "Server.config: max_clients must be >= 1";
  if stream_buf < 1 then
    invalid_arg "Server.config: stream_buf must be >= 1";
  (if engine = Engine.Domains && deadline <> None then
     invalid_arg
       "Server.config: a default deadline needs the forked engine (domains \
        cannot be killed at a deadline)");
  { s_socket = socket; s_jobs = max 1 jobs; s_cache = cache; s_depth = depth;
    s_max_clients = max_clients; s_deadline = deadline; s_engine = engine;
    s_stream_buf = stream_buf; s_log = log; s_stop = stop }

type stats = {
  sv_requests : int;
  sv_served : int;
  sv_cache_hits : int;
  sv_coalesced : int;
  sv_analyses : int;
  sv_shed : int;
  sv_crashed : int;
  sv_timeouts : int;
  sv_respawns : int;
  sv_evictions : int;
  sv_clients : int;
  sv_subscribers : int;
  sv_trace_events : int;
  sv_trace_dropped : int;
  sv_trace_lost : int;
}

(* ---- internal state ---- *)

(* One client's claim on a pending analysis.  The client is addressed by
   (slot, generation): slots are reused after a disconnect, and a verdict
   for a departed client must never reach its slot's next tenant.
   [w_trace] marks a Submit that asked for its own event stream: the
   entry's trace frames are delivered to it req-matched, unthrottled. *)
type waiter = { w_slot : int; w_gen : int; w_req : int; w_trace : bool }

(* A connection that sent Subscribe: every analysis fans its surviving
   events here as broadcast Trace frames, filtered and throttled per
   subscriber.  The cumulative counters ride every frame so the client
   can report exact loss without a side channel. *)
type sub = {
  sb_cats : string list;  (* category filter; [] = all *)
  sb_regexp : Str.regexp option;  (* anchored app-name filter *)
  sb_window : int;  (* requested throttle window, seq units *)
  sb_throttle : Stream.throttle;  (* per-subscriber, across all apps *)
  mutable sb_updropped : int;  (* worker-side throttle drops, summed *)
  mutable sb_uplost : int;  (* worker-side wraparound losses, summed *)
  mutable sb_lost : int;  (* events shed here on outbound backpressure *)
}

(* A pending or in-flight analysis.  Single-flight: concurrent Submits
   whose digests collide all attach as waiters to the first entry — the
   analysis runs once, the verdict fans out to every waiter.  Fault-marked
   tasks carry no key and never coalesce (a fault means "really run
   this").  The first waiter's deadline governs the entry. *)
type entry = {
  e_task : Task.t;
  e_key : string option;  (* digest; the single-flight identity *)
  mutable e_waiters : waiter list;  (* newest first *)
  e_deadline : float option;  (* the request's budget, else the default *)
}

type client = {
  cl_slot : int;
  cl_gen : int;
  cl_fd : Unix.file_descr;
  cl_reader : Wire.reader;
  mutable cl_out : string;  (* encoded frames not yet written *)
  mutable cl_closing : bool;  (* close once cl_out drains *)
  mutable cl_sub : sub option;  (* live trace subscription, if any *)
}

let serve cfg =
  let log fmt =
    Printf.ksprintf
      (fun s -> match cfg.s_log with Some f -> f s | None -> ())
      fmt
  in
  (* one engine per daemon: the two cannot share a process (Unix.fork
     refuses once a domain exists), so Auto resolves at startup — fork
     when a default deadline must be enforceable, domains otherwise *)
  let engine =
    Engine.resolve cfg.s_engine ~needs_isolation:(cfg.s_deadline <> None)
  in
  (* the facade owns digesting, the warm layer and the disk cache; created
     before forking so workers inherit the summary persistence hooks *)
  let service = Analysis.service ?cache:cfg.s_cache () in
  let requests = ref 0 and served = ref 0 and cache_hits = ref 0 in
  let coalesced = ref 0 and analyses = ref 0 in
  let shed = ref 0 and clients_total = ref 0 in
  let subscribers = ref 0 in
  let trace_events = ref 0 and trace_dropped = ref 0 and trace_lost = ref 0 in
  let next_task_id = ref 0 in
  let next_gen = ref 0 in
  let queue : entry Shard_queue.t =
    Shard_queue.create_empty ~shards:cfg.s_max_clients ~capacity:cfg.s_depth ()
  in
  (* digest -> the entry every colliding Submit coalesces onto; an entry
     is removed exactly when its terminal response fans out (or when its
     last waiter disconnects while it is still queued) *)
  let inflight : (string, entry) Hashtbl.t = Hashtbl.create 256 in
  let clients : client option array = Array.make cfg.s_max_clients None in
  (* ticket (the task id) -> the entry an executor task is running for *)
  let running : (int, entry) Hashtbl.t = Hashtbl.create 16 in
  (* ---- lifecycle ---- *)
  (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.s_socket);
  let stop = ref false in
  let stoppable s = Sys.signal s (Sys.Signal_handle (fun _ -> stop := true)) in
  let prev_term = stoppable Sys.sigterm in
  let prev_int = stoppable Sys.sigint in
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* listen only once SIGTERM is handled: a client may stop the daemon as
     soon as its connect succeeds, and that stop must take the orderly
     path below, not the default action that kills the process *)
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let should_stop () =
    !stop || (match cfg.s_stop with Some f -> f () | None -> false)
  in
  (* a worker must hold no descriptor of the socket or of any client, or
     a departed client's EOF goes unseen *)
  let client_fds () =
    listen_fd
    :: List.filter_map (Option.map (fun c -> c.cl_fd)) (Array.to_list clients)
  in
  (* this domain multiplexes sockets and must never run an analysis
     between two selects, so all [s_jobs] workers are spawned *)
  let ex =
    Executor.create ~close_in_child:client_fds ~caller_works:false engine
      ~jobs:cfg.s_jobs service
  in
  (* ---- client output: buffered, non-blocking ---- *)
  let waiter_live (w : waiter) =
    match clients.(w.w_slot) with
    | Some c -> c.cl_gen = w.w_gen
    | None -> false
  in
  let unlink_entry (e : entry) =
    match e.e_key with
    | Some k -> (
      match Hashtbl.find_opt inflight k with
      | Some e' when e' == e -> Hashtbl.remove inflight k
      | _ -> ())
    | None -> ()
  in
  let rec client_gone (c : client) =
    (match clients.(c.cl_slot) with
     | Some c' when c'.cl_gen = c.cl_gen ->
       clients.(c.cl_slot) <- None;
       (* a disconnected client's not-yet-dispatched requests are dropped
          — unless another client coalesced onto one, in which case the
          entry re-homes to a surviving waiter's shard; its in-flight
          ones finish and per-waiter generation checks sort out delivery *)
       let dropped = Shard_queue.clear_shard queue ~shard:c.cl_slot in
       let rehomed = ref 0 in
       List.iter
         (fun (e : entry) ->
           match List.filter waiter_live e.e_waiters with
           | [] -> unlink_entry e
           | survivors ->
             e.e_waiters <- survivors;
             let home = (List.hd survivors).w_slot in
             if Shard_queue.push queue ~shard:home e then incr rehomed
             else begin
               (* the survivor's shard is full: shed loudly, never drop *)
               unlink_entry e;
               List.iter
                 (fun (w : waiter) ->
                   incr shed;
                   deliver_waiter w
                     (Proto.Shed
                        { sh_req = w.w_req;
                          sh_reason =
                            "queue at capacity while re-homing a coalesced \
                             request" }))
                 (List.rev survivors)
             end)
         dropped;
       if dropped <> [] then
         log "client %d gone, dropped %d queued requests (%d re-homed)"
           c.cl_slot (List.length dropped) !rehomed
     | _ -> ());
    try Unix.close c.cl_fd with Unix.Unix_error _ -> ()
  and flush_client (c : client) =
    if c.cl_out <> "" then begin
      let len = String.length c.cl_out in
      match Unix.write_substring c.cl_fd c.cl_out 0 len with
      | n -> c.cl_out <- String.sub c.cl_out n (len - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error _ -> client_gone c
    end;
    if c.cl_out = "" && c.cl_closing then client_gone c
  and queue_out (c : client) msg =
    if not c.cl_closing then begin
      c.cl_out <- c.cl_out ^ Bytes.to_string (Proto.to_frame msg);
      flush_client c
    end
  and deliver_waiter (w : waiter) msg =
    match clients.(w.w_slot) with
    | Some c when c.cl_gen = w.w_gen -> queue_out c msg
    | _ -> ()
  in
  (* decisive: answer with the error, then close once it is written *)
  let refuse (c : client) why =
    queue_out c (Proto.Error why);
    c.cl_closing <- true;
    flush_client c
  in
  (* ---- trace fan-out: shed, never stall ---- *)
  (* A trace frame is queued only if the client's outbound buffer stays
     under the stream bound; otherwise the whole frame is shed and its
     events counted lost.  Verdicts never go through this gate — only
     trace frames are expendable. *)
  let queue_trace (c : client) msg =
    if c.cl_closing then false
    else begin
      let frame = Bytes.unsafe_to_string (Proto.to_frame msg) in
      if String.length c.cl_out + String.length frame > cfg.s_stream_buf then
        false
      else begin
        c.cl_out <- c.cl_out ^ frame;
        flush_client c;
        true
      end
    end
  in
  let sub_wants_app (s : sub) app =
    match s.sb_regexp with
    | None -> true
    | Some re -> Str.string_match re app 0
  in
  let sub_wants_cat (s : sub) (ev : Stream.event) =
    s.sb_cats = [] || List.mem (Event.category ev.Stream.ev_kind) s.sb_cats
  in
  let deliver_sub (c : client) (s : sub) (cp : Executor.completion) =
    let app = cp.report.Verdict.r_app in
    if sub_wants_app s app then begin
      s.sb_updropped <- s.sb_updropped + cp.dropped;
      s.sb_uplost <- s.sb_uplost + cp.lost;
      let d0 = Stream.dropped s.sb_throttle in
      let kept =
        List.filter
          (fun ev -> sub_wants_cat s ev && Stream.admit s.sb_throttle ev)
          cp.events
      in
      trace_dropped := !trace_dropped + (Stream.dropped s.sb_throttle - d0);
      if kept <> [] || cp.dropped > 0 || cp.lost > 0 then begin
        let msg =
          Proto.Trace
            { tc_req = -1; tc_app = app; tc_events = kept;
              tc_dropped = s.sb_updropped + Stream.dropped s.sb_throttle;
              tc_lost = s.sb_uplost + s.sb_lost }
        in
        if not (queue_trace c msg) then begin
          let n = List.length kept in
          s.sb_lost <- s.sb_lost + n;
          trace_lost := !trace_lost + n
        end
      end
    end
  in
  (* a finished task's events: req-matched and unfiltered to the
     entry's trace waiters, filtered and throttled to every subscriber *)
  let fanout_trace (e : entry) (cp : Executor.completion) =
    let n = List.length cp.events in
    trace_events := !trace_events + n;
    trace_dropped := !trace_dropped + cp.dropped;
    trace_lost := !trace_lost + cp.lost;
    List.iter
      (fun (w : waiter) ->
        if w.w_trace then
          match clients.(w.w_slot) with
          | Some c when c.cl_gen = w.w_gen ->
            let msg =
              Proto.Trace
                { tc_req = w.w_req; tc_app = cp.report.Verdict.r_app;
                  tc_events = cp.events; tc_dropped = cp.dropped;
                  tc_lost = cp.lost }
            in
            if not (queue_trace c msg) then trace_lost := !trace_lost + n
          | _ -> ())
      (List.rev e.e_waiters);
    Array.iter
      (function
        | Some c -> Option.iter (fun s -> deliver_sub c s cp) c.cl_sub
        | None -> ())
      clients
  in
  (* The window the worker-side tap should run with: 0 (unthrottled) if a
     waiter asked for its own stream, else the tightest-passing (minimum)
     subscriber window; [None] when nobody is listening — the worker then
     skips the tap entirely, which is what keeps an unsubscribed sweep at
     its usual speed.  Per-subscriber windows still apply on fan-out. *)
  let worker_window (e : entry) =
    let best = ref None in
    let demand w =
      best := Some (match !best with None -> w | Some b -> min b w)
    in
    if List.exists (fun (w : waiter) -> w.w_trace) e.e_waiters then demand 0;
    Array.iter
      (function
        | Some c -> (
          match c.cl_sub with Some s -> demand s.sb_window | None -> ())
        | None -> ())
      clients;
    !best
  in
  (* ---- admission ---- *)
  let admit (c : client) (s : Proto.submit) =
    incr requests;
    let task =
      { Task.t_id = !next_task_id; t_subject = s.Proto.sb_subject;
        t_mode = s.Proto.sb_mode; t_fault = s.Proto.sb_fault }
    in
    incr next_task_id;
    match Analysis.service_find service task with
    | Some (report, _) ->
      (* the daemon's reason to exist: the warm path never queues, never
         forks, never re-links — one probe, one frame back *)
      incr cache_hits;
      incr served;
      queue_out c
        (Proto.Verdict
           { vd_req = s.Proto.sb_req; vd_cached = true; vd_seconds = 0.0;
             vd_report = report })
    | None ->
      if
        (not (Executor.isolated ex))
        && (task.Task.t_fault <> None || s.Proto.sb_deadline <> None)
      then begin
        (* domains cannot act a fault or be killed at a deadline; refusing
           is honest — silently ignoring the marker would not be *)
        incr shed;
        queue_out c
          (Proto.Shed
             { sh_req = s.Proto.sb_req;
               sh_reason =
                 "request needs process isolation (fault or deadline); \
                  this daemon runs the domain engine" })
      end
      else begin
        let key =
          if task.Task.t_fault = None then
            Some (Analysis.service_digest service task)
          else None
        in
        match Option.bind key (Hashtbl.find_opt inflight) with
        | Some entry ->
          (* single-flight: same digest already queued or running — attach
             and wait for the shared verdict *)
          entry.e_waiters <-
            { w_slot = c.cl_slot; w_gen = c.cl_gen; w_req = s.Proto.sb_req;
              w_trace = s.Proto.sb_trace }
            :: entry.e_waiters;
          incr coalesced;
          queue_out c
            (Proto.Progress
               { pg_req = s.Proto.sb_req; pg_state = "coalesced";
                 pg_depth = Shard_queue.shard_depth queue ~shard:c.cl_slot })
        | None ->
          let entry =
            { e_task = task; e_key = key;
              e_waiters =
                [ { w_slot = c.cl_slot; w_gen = c.cl_gen;
                    w_req = s.Proto.sb_req; w_trace = s.Proto.sb_trace } ];
              e_deadline =
                (match s.Proto.sb_deadline with
                 | None -> cfg.s_deadline
                 | d -> d) }
          in
          if Shard_queue.push queue ~shard:c.cl_slot entry then begin
            (match key with
             | Some k -> Hashtbl.replace inflight k entry
             | None -> ());
            queue_out c
              (Proto.Progress
                 { pg_req = s.Proto.sb_req; pg_state = "queued";
                   pg_depth = Shard_queue.shard_depth queue ~shard:c.cl_slot })
          end
          else begin
            (* shed, don't stall: the bound is the whole backpressure story *)
            incr shed;
            queue_out c
              (Proto.Shed
                 { sh_req = s.Proto.sb_req;
                   sh_reason =
                     Printf.sprintf
                       "queue at capacity (%d requests in flight)"
                       (Shard_queue.remaining queue) })
          end
      end
  in
  let handle_client_frame (c : client) frame =
    match Proto.of_frame frame with
    | Ok (Proto.Submit s) -> admit c s
    | Ok (Proto.Subscribe s) -> (
      match
        match s.Proto.su_app with
        | None -> Ok None
        | Some re -> (
          try Ok (Some (Str.regexp re))
          with Failure e | Invalid_argument e ->
            Error (Printf.sprintf "bad app regex %S: %s" re e))
      with
      | Error e -> refuse c e
      | Ok regexp ->
        incr subscribers;
        c.cl_sub <-
          Some
            { sb_cats = s.Proto.su_cats; sb_regexp = regexp;
              sb_window = max 0 s.Proto.su_window;
              sb_throttle = Stream.throttle ~window:(max 0 s.Proto.su_window);
              sb_updropped = 0; sb_uplost = 0; sb_lost = 0 };
        log "client %d subscribed to traces (window %d)" c.cl_slot
          s.Proto.su_window)
    | Ok _ -> refuse c "clients may only send Submit or Subscribe messages"
    | Error e ->
      (* version mismatches and garbage close the connection *)
      refuse c e
  in
  (* ---- the executor: dispatch and completions ---- *)
  (* submit only while a worker is idle, so the backlog stays in the
     round-robin queue, where fairness and shedding act on it *)
  let rec dispatch () =
    if Executor.idle ex > 0 then
      match Shard_queue.pop_rr queue with
      | None -> ()
      | Some e ->
        let ticket = e.e_task.Task.t_id in
        Hashtbl.replace running ticket e;
        Executor.submit ex ~ticket ?deadline:e.e_deadline
          ?trace:(worker_window e) e.e_task;
        dispatch ()
  in
  let complete (cp : Executor.completion) =
    match Hashtbl.find_opt running cp.ticket with
    | None -> ()
    | Some e ->
      Hashtbl.remove running cp.ticket;
      incr analyses;
      (match cp.report.Verdict.r_verdict with
       | Verdict.Crashed why -> log "%s crashed (%s)" cp.report.Verdict.r_app why
       | _ -> ());
      (* events first, verdict second *)
      if cp.events <> [] || cp.dropped > 0 || cp.lost > 0 then fanout_trace e cp;
      unlink_entry e;
      (* terminal fan-out: one response per waiter, oldest submit first *)
      List.iter
        (fun (w : waiter) ->
          incr served;
          deliver_waiter w
            (Proto.Verdict
               { vd_req = w.w_req; vd_cached = false; vd_seconds = cp.seconds;
                 vd_report = cp.report }))
        (List.rev e.e_waiters)
  in
  (* ---- accept ---- *)
  let free_slot () =
    let found = ref None in
    Array.iteri
      (fun i c -> if !found = None && c = None then found := Some i)
      clients;
    !found
  in
  let accept_clients () =
    let rec loop () =
      match Unix.accept listen_fd with
      | fd, _ -> (
        match free_slot () with
        | None ->
          (* refuse loudly rather than queueing an invisible client *)
          (try Proto.write fd (Proto.Error "server full (client slots)")
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | Some slot ->
          Unix.set_nonblock fd;
          incr clients_total;
          incr next_gen;
          clients.(slot) <-
            Some
              { cl_slot = slot; cl_gen = !next_gen; cl_fd = fd;
                cl_reader = Wire.create_reader (); cl_out = "";
                cl_closing = false; cl_sub = None };
          log "client %d connected" slot;
          loop ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    loop ()
  in
  (* ---- the loop ---- *)
  log "listening on %s (%s engine, %d workers, depth %d)" cfg.s_socket
    (Engine.name engine) cfg.s_jobs cfg.s_depth;
  while not (should_stop ()) do
    (* keep every worker busy before sleeping *)
    dispatch ();
    let rfds = ref (listen_fd :: Executor.fds ex) in
    let wfds = ref [] in
    Array.iter
      (function
        | Some c ->
          rfds := c.cl_fd :: !rfds;
          if c.cl_out <> "" then wfds := c.cl_fd :: !wfds
        | None -> ())
      clients;
    let readable, writable, _ =
      try Unix.select !rfds !wfds [] (Executor.timeout ex)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listen_fd readable then accept_clients ();
    List.iter complete (Executor.collect ex readable);
    (* client traffic *)
    Array.iter
      (function
        | Some c when List.mem c.cl_fd readable -> (
          match Wire.drain c.cl_reader c.cl_fd with
          | `Frames frames -> List.iter (handle_client_frame c) frames
          | `Eof frames ->
            List.iter (handle_client_frame c) frames;
            client_gone c
          | `Oversized frames ->
            List.iter (handle_client_frame c) frames;
            refuse c
              (Printf.sprintf "frame longer than the %d-byte limit"
                 Wire.max_frame)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            ())
        | _ -> ())
      clients;
    Array.iter
      (function
        | Some c when List.mem c.cl_fd writable -> flush_client c
        | _ -> ())
      clients
  done;
  (* ---- orderly shutdown ---- *)
  log "shutting down";
  Array.iter
    (function
      | Some c -> flush_client c
      | None -> ())
    clients;
  (* forked workers are killed; a domain mid-analysis finishes first (it
     cannot be killed) and its verdict is discarded *)
  let k = Executor.shutdown ex in
  Array.iter
    (function
      | Some c -> ( try Unix.close c.cl_fd with Unix.Unix_error _ -> ())
      | None -> ())
    clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
  ignore (Sys.signal Sys.sigterm prev_term);
  ignore (Sys.signal Sys.sigint prev_int);
  ignore (Sys.signal Sys.sigpipe prev_sigpipe);
  { sv_requests = !requests; sv_served = !served;
    sv_cache_hits = !cache_hits; sv_coalesced = !coalesced;
    sv_analyses = !analyses; sv_shed = !shed; sv_crashed = k.Executor.crashed;
    sv_timeouts = k.Executor.timeouts; sv_respawns = k.Executor.respawns;
    sv_evictions = Analysis.service_evictions service;
    sv_clients = !clients_total;
    sv_subscribers = !subscribers;
    sv_trace_events = !trace_events;
    sv_trace_dropped = !trace_dropped;
    sv_trace_lost = !trace_lost }
