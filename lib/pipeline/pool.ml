module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics
module Ring = Ndroid_obs.Ring

type config = {
  c_jobs : int;
  c_timeout : float option;
  c_cache : Cache.t option;
  c_kill_worker_after : int option;
  c_progress : (done_:int -> total:int -> unit) option;
  c_engine : Engine.t;
}

let config ?(jobs = 1) ?timeout ?cache ?kill_worker_after ?progress
    ?(engine = Engine.Fork) () =
  { c_jobs = max 1 jobs; c_timeout = timeout; c_cache = cache;
    c_kill_worker_after = kill_worker_after; c_progress = progress;
    c_engine = engine }

type stats = {
  s_total : int;
  s_engine : string;
  s_from_workers : int;
  s_cache_hits : int;
  s_crashed : int;
  s_timeouts : int;
  s_respawns : int;
  s_steals : int;
  s_shed : int;
  s_injected_kills : int;
  s_evictions : int;
  s_wall : float;
  s_cache_pass : float;
  s_digest : float;
  s_fork : float;
  s_wire : float;
  s_collect : float;
  s_analyze_cpu : float;
  s_bytecodes : int;
  s_jni_crossings : int;
  s_focused_methods : int;
  s_skipped_bytecodes : int;
  s_ring_overwritten : int;
  s_metrics : Json.t;
}

let meta_int = Worker.meta_int

let counters_of_reports reports =
  Array.fold_left
    (fun (b, j, fm, sk) r ->
      ( b + meta_int "bytecodes" r,
        j + meta_int "jni_crossings" r,
        fm + meta_int "focused_methods" r,
        sk + meta_int "skipped_bytecodes" r ))
    (0, 0, 0, 0) reports

let now () = Unix.gettimeofday ()

let validate_ids tasks =
  List.iteri
    (fun i (t : Task.t) ->
      if t.Task.t_id <> i then
        invalid_arg
          (Printf.sprintf
             "Pool.run: task at position %d carries id %d (ids must be dense \
              and in order)"
             i t.Task.t_id))
    tasks

let dummy_report =
  { Verdict.r_app = "?"; r_analysis = "?";
    r_verdict = Verdict.Crashed "result never recorded"; r_meta = [] }

let run cfg tasks =
  validate_ids tasks;
  (* created before forking, so every worker inherits the summary
     persistence hooks and the cache pass itself can answer summary
     probes *)
  let service = Analysis.service ?cache:cfg.c_cache () in
  let t_start = now () in
  let total = List.length tasks in
  let results = Array.make total dummy_report in
  let n_done = ref 0 in
  let from_workers = ref 0 in
  let analyze_cpu = ref 0.0 in
  let digest_time = ref 0.0 in
  (* sweep-wide metrics: the parent's counters plus every worker
     registry, merged once the engine is done *)
  let metrics = Metrics.create () in
  let mcount name n = Metrics.add (Metrics.counter metrics name) n in
  let record id report =
    results.(id) <- report;
    incr n_done;
    match cfg.c_progress with
    | Some f -> f ~done_:!n_done ~total
    | None -> ()
  in
  (* phase 1: answer unchanged apps through the service facade (warm
     layer + disk cache) without dispatching — the progress callback
     fires for these exactly as it does for worker results, so done_/total
     is monotone and complete whatever mix of hits and misses a sweep is *)
  let t_cache0 = now () in
  let pending =
    match cfg.c_cache with
    | None -> tasks
    | Some _ ->
      List.filter
        (fun (task : Task.t) ->
          (* digest first, timed, so the key derivation cost is
             attributed to its own phase; the probe below hits the memo *)
          let t_d0 = now () in
          ignore (Analysis.service_digest service task);
          digest_time := !digest_time +. (now () -. t_d0);
          match Analysis.service_find service task with
          | Some (report, _) ->
            record task.Task.t_id report;
            false
          | None -> true)
        tasks
  in
  let cache_pass = now () -. t_cache0 in
  let cache_hits = !n_done in
  mcount "cache_hits" cache_hits;
  mcount "cache_misses" (total - cache_hits);
  let engine =
    Engine.resolve cfg.c_engine
      ~needs_isolation:
        (cfg.c_timeout <> None
        || cfg.c_kill_worker_after <> None
        || List.exists (fun (t : Task.t) -> t.Task.t_fault <> None) pending)
  in
  (* phase 2: the misses go through the executor, whichever engine *)
  let t_collect0 = now () in
  let k =
    if pending = [] then Executor.zero_counters
    else begin
      (* this domain blocks only in [wait], so it works there *)
      let ex =
        Executor.create ~caller_works:true engine
          ~jobs:(min cfg.c_jobs (List.length pending))
          service
      in
      List.iter
        (fun (t : Task.t) ->
          Executor.submit ex ~ticket:t.Task.t_id ?deadline:cfg.c_timeout t)
        pending;
      let kill_after = ref cfg.c_kill_worker_after in
      while !n_done < total do
        List.iter
          (fun (c : Executor.completion) ->
            analyze_cpu := !analyze_cpu +. c.seconds;
            incr from_workers;
            record c.ticket c.report;
            match !kill_after with
            | Some n when !from_workers >= n ->
              kill_after := None;
              Executor.kill_one ex
            | _ -> ())
          (Executor.wait ex)
      done;
      Executor.shutdown ex
    end
  in
  let collect = if pending = [] then 0.0 else now () -. t_collect0 in
  List.iter (Metrics.merge metrics) k.Executor.metrics;
  let bytecodes, jni_crossings, focused_methods, skipped_bytecodes =
    counters_of_reports results
  in
  let evictions = Analysis.service_evictions service in
  mcount "respawns" k.Executor.respawns;
  mcount "steals" k.Executor.steals;
  mcount "evictions" evictions;
  mcount "phase_cache_us" (int_of_float (cache_pass *. 1e6));
  mcount "phase_digest_us" (int_of_float (!digest_time *. 1e6));
  mcount "phase_fork_us" (int_of_float (k.Executor.fork_seconds *. 1e6));
  mcount "phase_wire_us" (int_of_float (k.Executor.wire_seconds *. 1e6));
  mcount "phase_collect_us" (int_of_float (collect *. 1e6));
  ( results,
    { s_total = total;
      s_engine = Engine.name engine;
      s_from_workers = !from_workers;
      s_cache_hits = cache_hits;
      s_crashed = k.Executor.crashed;
      s_timeouts = k.Executor.timeouts;
      s_respawns = k.Executor.respawns;
      s_steals = k.Executor.steals;
      s_shed = 0;
      s_injected_kills = k.Executor.kills;
      s_evictions = evictions;
      s_wall = now () -. t_start;
      s_cache_pass = cache_pass;
      s_digest = !digest_time;
      s_fork = k.Executor.fork_seconds;
      s_wire = k.Executor.wire_seconds;
      s_collect = collect;
      s_analyze_cpu = !analyze_cpu;
      s_bytecodes = bytecodes;
      s_jni_crossings = jni_crossings;
      s_focused_methods = focused_methods;
      s_skipped_bytecodes = skipped_bytecodes;
      s_ring_overwritten =
        Metrics.value (Metrics.counter metrics "ring_overwritten");
      s_metrics = Metrics.to_json metrics } )

let run_inline ?cache ?obs ?progress tasks =
  validate_ids tasks;
  (* the in-process batch path is a thin client of the same
     request-oriented facade the daemon serves from *)
  let service = Analysis.service ?cache () in
  (* without the caller's ring, every task records into one private ring,
     cleared before each as a worker's is: a fresh ring per dynamic run
     costs more allocation than the run itself *)
  let own = match obs with Some _ -> None | None -> Some (Ring.create ()) in
  let total = List.length tasks in
  let results = Array.make total dummy_report in
  let n_done = ref 0 in
  List.iter
    (fun (task : Task.t) ->
      let obs =
        match own with
        | Some ring ->
          Ring.clear ring;
          own
        | None -> obs
      in
      let report, _cached = Analysis.service_run service ?obs task in
      results.(task.Task.t_id) <- report;
      incr n_done;
      match progress with
      | Some f -> f ~done_:!n_done ~total
      | None -> ())
    tasks;
  results
