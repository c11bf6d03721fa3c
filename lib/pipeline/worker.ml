module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics
module Ring = Ndroid_obs.Ring
module Stream = Ndroid_obs.Stream

type completion = {
  ticket : int;
  report : Verdict.report;
  seconds : float;
  events : Stream.event list;
  dropped : int;
  lost : int;
}

let meta_int key (r : Verdict.report) =
  match
    ( List.assoc_opt key r.Verdict.r_meta,
      List.assoc_opt ("dynamic_" ^ key) r.Verdict.r_meta )
  with
  | Some (Json.Int n), _ | None, Some (Json.Int n) -> n
  | _ -> 0

let analyze ?service ~ring ?trace ~ticket task =
  (* provenance reconstruction reads the live window, and stale events
     would graft one app's trace onto the next app's flows *)
  Ring.clear ring;
  let ow0 = Ring.overwritten ring in
  let t0 = Unix.gettimeofday () in
  let report =
    match service with
    | Some sv -> fst (Analysis.service_run sv ~obs:ring task)
    | None -> Analysis.run ~obs:ring task
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let m = Ring.metrics ring in
  Metrics.incr (Metrics.counter m "tasks");
  Metrics.observe (Metrics.histogram m "task_seconds") seconds;
  Metrics.observe_int
    (Metrics.histogram m "task_bytecodes")
    (meta_int "bytecodes" report);
  Metrics.add
    (Metrics.counter m "ring_overwritten")
    (Ring.overwritten ring - ow0);
  (* a fresh tap per task: the cleared ring restarted the seq clock, and
     per-task throttle state is what makes both engines suppress the same
     events *)
  let events, dropped, lost =
    match trace with
    | None -> ([], 0, 0)
    | Some window ->
      let tap = Stream.tap ~window () in
      let events = Stream.drain tap ring in
      Metrics.add (Metrics.counter m "trace_events") (List.length events);
      Metrics.add (Metrics.counter m "trace_dropped") (Stream.tap_dropped tap);
      (events, Stream.tap_dropped tap, Stream.tap_missed tap)
  in
  { ticket; report; seconds; events; dropped; lost }

let act_on_fault = function
  | None -> ()
  | Some Task.Crash -> Unix._exit 66
  | Some Task.Kill ->
    (* death by signal: indistinguishable from an OOM kill to the parent *)
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some Task.Hang ->
    let rec hang () =
      Unix.sleep 3600;
      hang ()
    in
    hang ()
  | Some (Task.Sleep s) ->
    (* deterministic slowness, then the analysis proceeds normally *)
    Unix.sleepf s

let result_frame (c : completion) metrics =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int c.ticket);
         ("seconds", Json.Float c.seconds);
         ("metrics", metrics);
         ("report", Verdict.report_to_json c.report);
         ("events", Json.List (List.map Stream.event_json c.events));
         ("dropped", Json.Int c.dropped);
         ("lost", Json.Int c.lost) ])

let loop task_r result_w =
  let rec loop () =
    match Wire.read_frame task_r with
    | None -> ()
    | Some payload ->
      (match Json.of_string payload with
       | Error _ -> ()
       | Ok j -> (
         match Task.of_json j with
         | Error _ -> ()
         | Ok task ->
           let trace = Option.bind (Json.member "trace" j) Json.int in
           act_on_fault task.Task.t_fault;
           (* a fresh ring per task: its metrics registry rides the result
              frame back to the parent, which merges them *)
           let ring = Ring.create ~capacity:4096 () in
           let c = analyze ~ring ?trace ~ticket:task.Task.t_id task in
           Wire.write_frame result_w
             (result_frame c (Metrics.to_json (Ring.metrics ring)))));
      loop ()
  in
  (try loop () with _ -> ());
  Unix._exit 0
