(* The analysis service: the typed protocol, the service facade, and the
   daemon — request/verdict parity with batch analysis, per-client
   fairness, overload shedding, and surviving worker death. *)

module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Cache = Ndroid_pipeline.Cache
module Analysis = Ndroid_pipeline.Analysis
module Shard_queue = Ndroid_pipeline.Shard_queue
module Wire = Ndroid_pipeline.Wire
module Proto = Ndroid_pipeline.Proto
module Server = Ndroid_pipeline.Server
module Market = Ndroid_corpus.Market
module Stream = Ndroid_obs.Stream
module Event = Ndroid_obs.Event

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let slice n = Task.of_market_slice (Market.scaled n)

let with_fault fault tasks =
  List.map (fun (t : Task.t) -> { t with Task.t_fault = Some fault }) tasks

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

(* ---- protocol ---- *)

let strip_length frame =
  (* [Proto.to_frame] returns complete wire bytes; [of_frame] takes the
     payload as the reader returns it, without the 4-byte length *)
  let s = Bytes.to_string frame in
  String.sub s 4 (String.length s - 4)

let test_proto_roundtrip () =
  let subject = (List.hd (slice 8)).Task.t_subject in
  let report =
    { Verdict.r_app = "app-0"; r_analysis = "static"; r_verdict = Verdict.Clean;
      r_meta = [ ("jni_sites", Json.Int 1) ] }
  in
  let messages =
    [ Proto.Submit
        { sb_req = 3; sb_subject = subject; sb_mode = Task.Hybrid;
          sb_deadline = Some 1.5; sb_fault = Some Task.Crash;
          sb_trace = false };
      Proto.Submit
        { sb_req = 0; sb_subject = Task.Bundled "case1"; sb_mode = Task.Static;
          sb_deadline = None; sb_fault = None; sb_trace = true };
      Proto.Verdict
        { vd_req = 7; vd_cached = true; vd_seconds = 0.25; vd_report = report };
      Proto.Progress { pg_req = 2; pg_state = "queued"; pg_depth = 5 };
      Proto.Shed { sh_req = 9; sh_reason = "queue at capacity" };
      Proto.Subscribe
        { su_cats = [ "jni"; "taint" ]; su_app = Some "case.*";
          su_window = 4096 };
      Proto.Subscribe { su_cats = []; su_app = None; su_window = 0 };
      Proto.Trace
        { tc_req = -1; tc_app = "case1";
          tc_events =
            [ { Stream.ev_seq = 0; ev_kind = Event.K_jni_begin;
                ev_name = "La;->n"; ev_detail = "java->native"; ev_addr = 0;
                ev_taint = 2; ev_insn = "" };
              { Stream.ev_seq = 5; ev_kind = Event.K_log; ev_name = "line";
                ev_detail = ""; ev_addr = 0; ev_taint = 0; ev_insn = "" } ];
          tc_dropped = 3; tc_lost = 1 };
      Proto.Trace
        { tc_req = 2; tc_app = "case2"; tc_events = []; tc_dropped = 0;
          tc_lost = 7 };
      Proto.Error "bad frame" ]
  in
  List.iter
    (fun m ->
      match Proto.of_frame (strip_length (Proto.to_frame m)) with
      | Error e -> Alcotest.failf "roundtrip: %s" e
      | Ok m' ->
        Alcotest.(check bytes) "message survives the wire" (Proto.to_frame m)
          (Proto.to_frame m'))
    messages

let test_proto_version_mismatch () =
  (* a frame from a binary one protocol generation ahead must be one
     decisive error, not a misparse *)
  let alien =
    Printf.sprintf "%c%c{}" (Char.chr (Wire.protocol_version + 1)) 'V'
  in
  (match Proto.of_frame alien with
   | Ok _ -> Alcotest.fail "alien version accepted"
   | Error e ->
     Alcotest.(check bool) "error names the version" true
       (contains ~affix:"version" e || contains ~affix:"protocol" e));
  match Proto.of_frame "" with
  | Ok _ -> Alcotest.fail "empty frame accepted"
  | Error _ -> ()

(* ---- the service queue discipline ---- *)

let test_queue_service_discipline () =
  let q = Shard_queue.create_empty ~shards:3 ~capacity:4 () in
  Alcotest.(check bool) "push a" true (Shard_queue.push q ~shard:0 "a");
  Alcotest.(check bool) "push b" true (Shard_queue.push q ~shard:0 "b");
  Alcotest.(check bool) "push c" true (Shard_queue.push q ~shard:1 "c");
  Alcotest.(check bool) "push d" true (Shard_queue.push q ~shard:2 "d");
  Alcotest.(check bool) "capacity refuses" false (Shard_queue.push q ~shard:1 "e");
  Alcotest.(check int) "depth of shard 0" 2 (Shard_queue.shard_depth q ~shard:0);
  (* round-robin: one item per non-empty shard per round, so the client
     with two queued items waits for everyone else's first *)
  let pops = List.init 4 (fun _ -> Shard_queue.pop_rr q) in
  Alcotest.(check (list (option string))) "rr order"
    [ Some "a"; Some "c"; Some "d"; Some "b" ] pops;
  Alcotest.(check (option string)) "empty" None (Shard_queue.pop_rr q);
  (* popping freed capacity *)
  Alcotest.(check bool) "push after pop" true (Shard_queue.push q ~shard:1 "f");
  Alcotest.(check bool) "push g" true (Shard_queue.push q ~shard:1 "g");
  Alcotest.(check (list string)) "clear_shard returns the backlog"
    [ "f"; "g" ] (Shard_queue.clear_shard q ~shard:1);
  Alcotest.(check int) "cleared" 0 (Shard_queue.shard_depth q ~shard:1)

(* ---- the facade ---- *)

let test_service_facade () =
  let sv = Analysis.service () in
  let task = List.hd (slice 16) in
  let r1, hit1 = Analysis.service_run sv task in
  let r2, hit2 = Analysis.service_run sv task in
  Alcotest.(check bool) "first run computes" false hit1;
  Alcotest.(check bool) "second run is warm" true hit2;
  Alcotest.(check string) "warm report identical"
    (Json.to_string (Verdict.report_to_json r1))
    (Json.to_string (Verdict.report_to_json r2));
  (* fault-marked requests must never be answered from (or poison) the
     warm layer: the marker asks for a live worker run *)
  let faulted = { task with Task.t_fault = Some (Task.Sleep 0.0) } in
  let _, fhit1 = Analysis.service_run sv faulted in
  let _, fhit2 = Analysis.service_run sv faulted in
  Alcotest.(check bool) "faulted never cache-served" false (fhit1 || fhit2)

let test_digest_distinguishes_entry_points () =
  (* the poly-* bundled apps share one dex and one native library and
     differ only in entry point — their cache keys must still differ *)
  let dig name =
    Analysis.digest
      { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Static;
        t_fault = None }
  in
  Alcotest.(check bool) "poly-net vs poly-file" false
    (dig "poly-net" = dig "poly-file");
  Alcotest.(check bool) "poly-net vs poly-callback" false
    (dig "poly-net" = dig "poly-callback")

(* ---- the daemon ---- *)

let tmp_name prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 1_000_000))

let with_daemon ?(jobs = 1) ?depth ?max_clients ?deadline ?cache f =
  let socket = tmp_name "ndroid-test-sock" in
  match Unix.fork () with
  | 0 ->
    (try
       ignore
         (Server.serve (Server.config ~socket ~jobs ?depth ?max_clients
                          ?deadline ?cache ()))
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        try Unix.unlink socket with Unix.Unix_error _ -> ())
      (fun () -> f socket)

let connect socket =
  match Proto.Client.connect ~retry_for:10.0 socket with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
    (* a wedged daemon must fail the test, not hang the suite *)
    Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
    c

let submit c ?deadline ?(trace = false) (t : Task.t) =
  Proto.Client.send c
    (Proto.Submit
       { sb_req = t.Task.t_id; sb_subject = t.Task.t_subject;
         sb_mode = t.Task.t_mode; sb_deadline = deadline;
         sb_fault = t.Task.t_fault; sb_trace = trace })

(* next [n] terminal responses, in arrival order *)
let collect c n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Proto.Client.recv c with
      | Error e -> Alcotest.failf "recv: %s" e
      | Ok (Proto.Verdict v) ->
        go ((v.vd_req, `Verdict (v.vd_report, v.vd_cached)) :: acc) (k - 1)
      | Ok (Proto.Shed s) -> go ((s.sh_req, `Shed s.sh_reason) :: acc) (k - 1)
      | Ok (Proto.Progress _) -> go acc k
      | Ok _ -> Alcotest.fail "unexpected message from the server"
  in
  go [] n

let reports_in_req_order terminals total =
  let arr = Array.make total None in
  List.iter
    (fun (req, t) ->
      match t with
      | `Verdict (r, cached) -> arr.(req) <- Some (r, cached)
      | `Shed reason -> Alcotest.failf "request %d shed: %s" req reason)
    terminals;
  Array.map
    (function
      | Some rc -> rc
      | None -> Alcotest.fail "request got no terminal response")
    arr

let test_daemon_parity_and_warm () =
  let tasks = slice 40 in
  let n = List.length tasks in
  let expected = json_of (Pool.run_inline tasks) in
  with_daemon ~jobs:2 (fun socket ->
      let c = connect socket in
      List.iter (submit c) tasks;
      let cold = reports_in_req_order (collect c n) n in
      Alcotest.(check string) "cold verdicts bit-identical to batch" expected
        (json_of (Array.map fst cold));
      Alcotest.(check bool) "cold run computed" true
        (Array.for_all (fun (_, cached) -> not cached) cold);
      List.iter (submit c) tasks;
      let warm = reports_in_req_order (collect c n) n in
      Alcotest.(check string) "warm verdicts bit-identical" expected
        (json_of (Array.map fst warm));
      Alcotest.(check bool) "warm run all served from cache" true
        (Array.for_all (fun (_, cached) -> cached) warm);
      Proto.Client.close c)

let test_daemon_two_clients () =
  (* two clients pipelining concurrently on one worker: each stream gets
     exactly its own verdicts, each request exactly one terminal *)
  let tasks = slice 12 in
  let n = List.length tasks in
  with_daemon ~jobs:1 (fun socket ->
      let a = connect socket in
      let b = connect socket in
      List.iter
        (fun t ->
          submit a t;
          submit b t)
        tasks;
      let check name terminals =
        let reqs =
          List.map fst terminals |> List.sort_uniq compare
        in
        Alcotest.(check (list int)) (name ^ ": every request answered once")
          (List.map (fun (t : Task.t) -> t.Task.t_id) tasks)
          reqs
      in
      check "client a" (collect a n);
      check "client b" (collect b n);
      Proto.Client.close a;
      Proto.Client.close b)

let test_daemon_fairness () =
  (* a saturating client cannot starve a neighbour: round-robin dispatch
     serves b's single request after at most one in-flight task, while
     a's backlog alone is ~1.5s of worker time *)
  let backlog = with_fault (Task.Sleep 0.05) (slice 30) in
  let quick = List.hd (slice 1) in
  with_daemon ~jobs:1 ~depth:64 (fun socket ->
      let a = connect socket in
      let b = connect socket in
      List.iter (submit a) backlog;
      Unix.sleepf 0.05 (* let a's backlog reach the queue first *);
      let t0 = Unix.gettimeofday () in
      submit b quick;
      (match collect b 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "b expected one verdict");
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "b served promptly (%.3fs)" waited) true
        (waited < 0.75);
      Proto.Client.close b;
      ignore (collect a (List.length backlog));
      Proto.Client.close a)

let test_daemon_overload_sheds () =
  (* a bounded queue refuses loudly: every request gets its terminal
     response, none stall, the excess is shed *)
  let tasks = with_fault (Task.Sleep 0.01) (slice 30) in
  let n = List.length tasks in
  with_daemon ~jobs:1 ~depth:4 (fun socket ->
      let c = connect socket in
      List.iter (submit c) tasks;
      let terminals = collect c n in
      let sheds =
        List.length
          (List.filter (function _, `Shed _ -> true | _ -> false) terminals)
      in
      Alcotest.(check int) "every request answered" n (List.length terminals);
      Alcotest.(check bool)
        (Printf.sprintf "overload shed some load (%d)" sheds) true (sheds > 0);
      Proto.Client.close c)

let test_daemon_survives_worker_kill () =
  (* SIGKILL lands on the worker mid-request: that request gets a Crashed
     verdict — the one the batch records for the same task — and the
     daemon respawns and serves the next request normally *)
  let victim = { (List.hd (slice 1)) with Task.t_fault = Some Task.Kill } in
  let clean = List.hd (slice 1) in
  let batch, _ = Pool.run (Pool.config ~jobs:1 ()) [ victim ] in
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      submit c victim;
      (match collect c 1 with
       | [ (0, `Verdict (r, _)) ] -> (
         (match r.Verdict.r_verdict with
          | Verdict.Crashed why ->
            Alcotest.(check bool) "says how the worker died" true
              (contains ~affix:"SIGKILL" why)
          | _ -> Alcotest.fail "expected a Crashed verdict");
         Alcotest.(check string) "same bytes as the batch verdict"
           (json_of batch) (json_of [| r |]))
       | _ -> Alcotest.fail "expected one verdict");
      submit c clean;
      (match collect c 1 with
       | [ (0, `Verdict (r, _)) ] ->
         Alcotest.(check string) "respawned worker analyzes normally"
           "static" r.Verdict.r_analysis
       | _ -> Alcotest.fail "expected one verdict after the respawn");
      Proto.Client.close c)

let test_daemon_deadline () =
  let hung = { (List.hd (slice 1)) with Task.t_fault = Some Task.Hang } in
  let clean = List.hd (slice 1) in
  let batch, _ = Pool.run (Pool.config ~jobs:1 ~timeout:0.2 ()) [ hung ] in
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      submit c ~deadline:0.2 hung;
      let rec verdict () =
        match Proto.Client.recv c with
        | Ok (Proto.Verdict v) ->
          Alcotest.(check int) "the hung request's verdict" 0 v.vd_req;
          (v.vd_report, v.vd_seconds)
        | Ok (Proto.Progress _) -> verdict ()
        | Ok _ -> Alcotest.fail "expected one verdict"
        | Error e -> Alcotest.failf "recv: %s" e
      in
      let r, seconds = verdict () in
      Alcotest.(check bool) "hung request times out" true
        (r.Verdict.r_verdict = Verdict.Timeout);
      Alcotest.(check string) "same bytes as the batch verdict"
        (json_of batch) (json_of [| r |]);
      Alcotest.(check bool)
        (Printf.sprintf "charged the time to the kill (%.3fs)" seconds)
        true (seconds >= 0.19);
      submit c clean;
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "daemon must outlive the deadline kill");
      Proto.Client.close c)

(* ---- live streaming through the daemon ---- *)

let hybrid_task name =
  { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Hybrid;
    t_fault = None }

(* A Submit with the trace flag streams its own events inline on the same
   connection: every Trace frame arrives before the verdict, carries the
   request id, and the stream crosses JNI in seq order. *)
let test_daemon_inline_trace_stream () =
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      submit c ~trace:true (hybrid_task "case1");
      let rec go events =
        match Proto.Client.recv c with
        | Error e -> Alcotest.failf "recv: %s" e
        | Ok (Proto.Trace tc) ->
          Alcotest.(check int) "inline frames carry the request id" 0
            tc.Proto.tc_req;
          go (events @ tc.Proto.tc_events)
        | Ok (Proto.Verdict _) -> events
        | Ok (Proto.Progress _) -> go events
        | Ok _ -> Alcotest.fail "unexpected message"
      in
      let events = go [] in
      Alcotest.(check bool) "events arrived before the verdict" true
        (events <> []);
      Alcotest.(check bool) "the stream crosses JNI" true
        (List.exists
           (fun (ev : Stream.event) -> ev.Stream.ev_kind = Event.K_jni_begin)
           events);
      let seqs = List.map (fun (ev : Stream.event) -> ev.Stream.ev_seq) events in
      Alcotest.(check bool) "seq strictly ordered" true
        (List.sort_uniq compare seqs = seqs);
      Proto.Client.close c)

(* A Subscribe connection gets every analysis broadcast, filtered to its
   categories and app regexp, with req = -1; verdicts never land there. *)
let test_daemon_broadcast_subscriber () =
  with_daemon ~jobs:1 (fun socket ->
      let sub = connect socket in
      Proto.Client.send sub
        (Proto.Subscribe
           { su_cats = [ "jni" ]; su_app = Some "case.*"; su_window = 0 });
      let c = connect socket in
      submit c (hybrid_task "case1");
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "submitter expected one verdict");
      (match Proto.Client.recv sub with
       | Error e -> Alcotest.failf "subscriber recv: %s" e
       | Ok (Proto.Trace tc) ->
         Alcotest.(check int) "broadcast frames are request-less" (-1)
           tc.Proto.tc_req;
         Alcotest.(check string) "frames name the app" "case1"
           tc.Proto.tc_app;
         Alcotest.(check bool) "frame is non-empty" true
           (tc.Proto.tc_events <> []);
         List.iter
           (fun (ev : Stream.event) ->
             Alcotest.(check string) "category filter respected" "jni"
               (Event.category ev.Stream.ev_kind))
           tc.Proto.tc_events;
         Alcotest.(check bool) "the jni lane has its begin" true
           (List.exists
              (fun (ev : Stream.event) ->
                ev.Stream.ev_kind = Event.K_jni_begin)
              tc.Proto.tc_events)
       | Ok _ -> Alcotest.fail "subscriber expected a Trace frame");
      Proto.Client.close sub;
      Proto.Client.close c)

(* The app regexp is a real gate: a subscriber watching a different app
   sees no frames for this analysis, only the submitter's inline stream
   exists.  (Asserting a negative over a live socket: the submitter's
   verdict is the happens-after barrier — by then fan-out for the task is
   done, and the subscriber's connection must hold nothing.) *)
let test_daemon_subscriber_app_filter () =
  with_daemon ~jobs:1 (fun socket ->
      let sub = connect socket in
      Proto.Client.send sub
        (Proto.Subscribe
           { su_cats = []; su_app = Some "no-such-app.*"; su_window = 0 });
      let c = connect socket in
      submit c (hybrid_task "case1");
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "submitter expected one verdict");
      Unix.setsockopt_float (Proto.Client.fd sub) Unix.SO_RCVTIMEO 0.3;
      (match Proto.Client.recv sub with
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         ()  (* receive timeout: nothing was sent, as required *)
       | Error _ -> ()
       | Ok (Proto.Trace tc) ->
         Alcotest.failf "filtered subscriber got %d events for %s"
           (List.length tc.Proto.tc_events) tc.Proto.tc_app
       | Ok _ -> Alcotest.fail "unexpected message");
      Proto.Client.close sub;
      Proto.Client.close c)

(* A 4-byte prefix claiming ~4 GiB is refused, not allocated for: the
   sender gets one Error and then EOF, and the daemon keeps serving the
   client beside it. *)
let test_daemon_refuses_oversized_frame () =
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      let raw = connect socket in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 0xFFFFFFF0l;
      ignore (Unix.write (Proto.Client.fd raw) hdr 0 4);
      (match Proto.Client.recv raw with
       | Ok (Proto.Error _) -> ()
       | _ -> Alcotest.fail "an oversized prefix must be answered with Error");
      Alcotest.(check (option string)) "then EOF" None
        (Wire.read_frame (Proto.Client.fd raw));
      Proto.Client.close raw;
      submit c (List.hd (slice 1));
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "the other client must still get its verdict");
      Proto.Client.close c)

(* ---- batch-side satellites ---- *)

let test_inline_progress_uniform () =
  (* progress must fire once per task whether the answer was computed or
     served warm — a progress bar that skips cache hits reads as a hang *)
  let tasks = slice 20 in
  let n = List.length tasks in
  let count = ref 0 in
  let last = ref 0 in
  let progress ~done_ ~total =
    incr count;
    Alcotest.(check int) "monotone" (!last + 1) done_;
    last := done_;
    Alcotest.(check int) "total constant" n total
  in
  ignore (Pool.run_inline ~progress tasks);
  Alcotest.(check int) "cold: one tick per task" n !count;
  count := 0;
  last := 0;
  ignore (Pool.run_inline ~progress tasks);
  Alcotest.(check int) "warm path ticks the same" n !count

let test_pool_stats_shed_zero () =
  let _, stats = Pool.run (Pool.config ~jobs:2 ()) (slice 24) in
  Alcotest.(check int) "batch sweeps never shed" 0 stats.Pool.s_shed

(* The disk cache outlives the daemon: a daemon restarted on the same
   directory answers every request from it, with the first one's bytes.
   The warm layer starts empty in each daemon, so only the disk can
   serve the second. *)
let test_daemon_restart_reads_disk_cache () =
  let market = slice 24 in
  let bundled =
    List.mapi
      (fun i name ->
        { Task.t_id = List.length market + i; t_subject = Task.Bundled name;
          t_mode = Task.Both; t_fault = None })
      [ "case1"; "QQPhoneBook3.5" ]
  in
  let tasks = market @ bundled in
  let n = List.length tasks in
  let expected = json_of (Pool.run_inline tasks) in
  let dir = tmp_name "ndroid-test-cache" in
  let serve_all () =
    with_daemon ~jobs:2 ~cache:(Cache.create ~dir) (fun socket ->
        let c = connect socket in
        List.iter (submit c) tasks;
        let answers = reports_in_req_order (collect c n) n in
        Proto.Client.close c;
        answers)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let cold = serve_all () in
      Alcotest.(check string) "cold verdicts bit-identical to batch" expected
        (json_of (Array.map fst cold));
      Alcotest.(check bool) "cold daemon computed every verdict" true
        (Array.for_all (fun (_, cached) -> not cached) cold);
      let restarted = serve_all () in
      Alcotest.(check string) "restarted verdicts bit-identical" expected
        (json_of (Array.map fst restarted));
      Alcotest.(check bool) "restarted daemon answered all from disk" true
        (Array.for_all (fun (_, cached) -> cached) restarted))

let suite =
  [ Alcotest.test_case "proto: messages roundtrip the wire" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "proto: version mismatch is decisive" `Quick
      test_proto_version_mismatch;
    Alcotest.test_case "queue: service discipline (rr, bound, clear)" `Quick
      test_queue_service_discipline;
    Alcotest.test_case "service: facade memoizes, faults bypass" `Quick
      test_service_facade;
    Alcotest.test_case "service: digest keys on entry point" `Quick
      test_digest_distinguishes_entry_points;
    Alcotest.test_case "daemon: verdicts bit-identical to batch, warm hits"
      `Quick test_daemon_parity_and_warm;
    Alcotest.test_case "daemon: two clients, interleaved streams" `Quick
      test_daemon_two_clients;
    Alcotest.test_case "daemon: saturating client cannot starve another"
      `Quick test_daemon_fairness;
    Alcotest.test_case "daemon: overload sheds, nothing stalls" `Quick
      test_daemon_overload_sheds;
    Alcotest.test_case "daemon: survives worker SIGKILL mid-request" `Quick
      test_daemon_survives_worker_kill;
    Alcotest.test_case "daemon: oversized frame refused, others served"
      `Quick test_daemon_refuses_oversized_frame;
    Alcotest.test_case "daemon: per-request deadline kills and recovers"
      `Quick test_daemon_deadline;
    Alcotest.test_case "daemon: submit --trace streams before the verdict"
      `Quick test_daemon_inline_trace_stream;
    Alcotest.test_case "daemon: subscriber gets filtered broadcast frames"
      `Quick test_daemon_broadcast_subscriber;
    Alcotest.test_case "daemon: app regexp gates the broadcast" `Quick
      test_daemon_subscriber_app_filter;
    Alcotest.test_case "pool: progress uniform across cache hits" `Quick
      test_inline_progress_uniform;
    Alcotest.test_case "pool: batch stats report zero shed" `Quick
      test_pool_stats_shed_zero;
    Alcotest.test_case "daemon: a restarted daemon answers from its disk cache"
      `Quick test_daemon_restart_reads_disk_cache ]
