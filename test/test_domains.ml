(* The domain engine: three-way engine parity, the bounded warm layer,
   domain-safety of the shared service, the in-process worker pool, and
   single-flight coalescing in the daemon.

   This suite spawns domains, and OCaml 5 forbids [Unix.fork] once any
   domain has ever existed in the process — so this suite must register
   LAST in test_main, and the one test here that forks (the engine
   differential, via the forked pool engine) must run FIRST within it. *)

module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Engine = Ndroid_pipeline.Engine
module Pool = Ndroid_pipeline.Pool
module Analysis = Ndroid_pipeline.Analysis
module Domain_pool = Ndroid_pipeline.Domain_pool
module Worker = Ndroid_pipeline.Worker
module Proto = Ndroid_pipeline.Proto
module Server = Ndroid_pipeline.Server
module Market = Ndroid_corpus.Market
module Registry = Ndroid_apps.Registry
module Stream = Ndroid_obs.Stream

let slice n = Task.of_market_slice (Market.scaled n)

let bundled_tasks mode =
  List.mapi
    (fun i name ->
      { Task.t_id = i; t_subject = Task.Bundled name; t_mode = mode;
        t_fault = None })
    Registry.names

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

let report_json r = Json.to_string (Verdict.report_to_json r)

(* ---- stream differential: both engines, identical event streams ----

   The fork half runs first (it forks a daemon, which is only legal before
   any domain exists); the domains half runs at the end of the suite and
   compares against the stream the fork half left here. *)

let stream_apps = [ "case1"; "case2"; "QQPhoneBook3.5" ]
let fork_streams : string list list option ref = ref None

(* one inline-traced submission per app, events as canonical JSON lines *)
let streams_of_daemon socket =
  let c =
    match Proto.Client.connect ~retry_for:10.0 socket with
    | Ok c ->
      Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
      c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  let one i name =
    Proto.Client.send c
      (Proto.Submit
         { sb_req = i; sb_subject = Task.Bundled name; sb_mode = Task.Hybrid;
           sb_deadline = None; sb_fault = None; sb_trace = true });
    let rec go acc =
      match Proto.Client.recv c with
      | Error e -> Alcotest.failf "recv: %s" e
      | Ok (Proto.Trace tc) ->
        go
          (acc
          @ List.map
              (fun ev -> Json.to_string (Stream.event_json ev))
              tc.Proto.tc_events)
      | Ok (Proto.Verdict _) -> acc
      | Ok (Proto.Progress _) -> go acc
      | Ok _ -> Alcotest.fail "unexpected message"
    in
    go []
  in
  let streams = List.mapi one stream_apps in
  Proto.Client.close c;
  streams

let test_stream_differential_fork_half () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-stream-fork-%d.sock" (Unix.getpid ()))
  in
  match Unix.fork () with
  | 0 ->
    (try
       ignore
         (Server.serve
            (Server.config ~socket ~jobs:1 ~engine:Engine.Fork ()))
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        try Unix.unlink socket with Unix.Unix_error _ -> ())
      (fun () ->
        let streams = streams_of_daemon socket in
        List.iter2
          (fun name s ->
            Alcotest.(check bool) (name ^ ": fork engine streamed") true
              (s <> []))
          stream_apps streams;
        fork_streams := Some streams)

(* ---- engine parity (forks: must stay the first test of this suite) ---- *)

let test_engine_differential () =
  let corpora =
    [ ("bundled both", bundled_tasks Task.Both);
      ("market 300 static", slice 300) ]
  in
  let inline = List.map (fun (_, ts) -> json_of (Pool.run_inline ts)) corpora in
  (* every forked run happens before the first domain spawn below *)
  let engine_run engine tasks =
    let reports, stats =
      Pool.run (Pool.config ~jobs:2 ~engine ()) tasks
    in
    Alcotest.(check string) "stats name the engine" (Engine.name engine)
      stats.Pool.s_engine;
    json_of reports
  in
  let forked = List.map (fun (_, ts) -> engine_run Engine.Fork ts) corpora in
  let domains =
    List.map (fun (_, ts) -> engine_run Engine.Domains ts) corpora
  in
  List.iteri
    (fun i (name, _) ->
      Alcotest.(check string) (name ^ ": fork == inline") (List.nth inline i)
        (List.nth forked i);
      Alcotest.(check string) (name ^ ": domains == inline")
        (List.nth inline i) (List.nth domains i))
    corpora

let test_engine_auto_resolution () =
  (* auto picks domains for clean work and fork for anything needing
     isolation; an explicit engine is obeyed *)
  Alcotest.(check string) "auto, clean" "domains"
    (Engine.name (Engine.resolve Engine.Auto ~needs_isolation:false));
  Alcotest.(check string) "auto, isolation" "fork"
    (Engine.name (Engine.resolve Engine.Auto ~needs_isolation:true));
  Alcotest.(check string) "forced domains" "domains"
    (Engine.name (Engine.resolve Engine.Domains ~needs_isolation:true));
  (match Engine.of_name "domains" with
   | Ok Engine.Domains -> ()
   | _ -> Alcotest.fail "of_name domains");
  match Engine.of_name "threads" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_name accepted garbage"

(* ---- the bounded warm layer ---- *)

let test_service_eviction () =
  let sv = Analysis.service ~capacity:4 () in
  let tasks = slice 10 in
  let first = List.map (fun t -> Analysis.service_run sv t) tasks in
  Alcotest.(check bool) "cap held" true
    (Analysis.service_warm_entries sv <= 4);
  Alcotest.(check bool) "evictions counted" true
    (Analysis.service_evictions sv > 0);
  (* an evicted entry recomputes to the identical report *)
  List.iteri
    (fun i t ->
      let r, _ = Analysis.service_run sv t in
      Alcotest.(check string)
        (Printf.sprintf "task %d identical after eviction" i)
        (report_json (fst (List.nth first i)))
        (report_json r))
    tasks

let test_service_second_chance () =
  (* a referenced entry survives one eviction scan: hammer one task while
     filling the table and it must stay warm *)
  let sv = Analysis.service ~capacity:4 () in
  let hot = List.hd (slice 1) in
  ignore (Analysis.service_run sv hot);
  List.iter
    (fun t ->
      ignore (Analysis.service_run sv hot);  (* keep the ref bit set *)
      ignore (Analysis.service_run sv t))
    (slice 6);
  let _, warm = Analysis.service_run sv hot in
  Alcotest.(check bool) "hot entry survived the churn" true warm

(* ---- domain-safety of the shared service ---- *)

let prop_service_hammer =
  QCheck.Test.make ~name:"one service, 4 hammering domains, no lost entries"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let tasks = Array.of_list (slice 16) in
      let reference =
        let sv = Analysis.service () in
        Array.map (fun t -> report_json (fst (Analysis.service_run sv t))) tasks
      in
      let sv = Analysis.service () in
      (* each domain runs its own seeded mix of the corpus, duplicates
         included, all against the one shared service *)
      let mix k =
        let state = ref (seed + (k * 7919) + 1) in
        List.init 40 (fun _ ->
            state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
            !state mod Array.length tasks)
      in
      let run_ids ids =
        List.map
          (fun i -> (i, report_json (fst (Analysis.service_run sv tasks.(i)))))
          ids
      in
      let workers =
        List.init 4 (fun k ->
            let ids = mix k in
            Domain.spawn (fun () -> run_ids ids))
      in
      let results = List.concat_map Domain.join workers in
      List.iter
        (fun (i, got) ->
          if not (String.equal reference.(i) got) then
            QCheck.Test.fail_reportf "task %d diverged under contention" i)
        results;
      (* nothing lost, nothing duplicated: exactly one warm entry per
         distinct digest ever requested *)
      let distinct =
        List.sort_uniq compare (List.map fst results) |> List.length
      in
      Alcotest.(check int) "one warm entry per distinct task" distinct
        (Analysis.service_warm_entries sv);
      Alcotest.(check int) "every request counted" (4 * 40)
        (Analysis.service_requests sv);
      true)

(* ---- the worker pool itself ---- *)

let test_domain_pool_roundtrip () =
  let tasks = slice 30 in
  let reference = Pool.run_inline tasks in
  let service = Analysis.service () in
  let pool = Domain_pool.create ~domains:2 ~service () in
  List.iter
    (fun (t : Task.t) -> Domain_pool.submit pool ~ticket:(1000 + t.Task.t_id) t)
    tasks;
  let got = Hashtbl.create 32 in
  while Hashtbl.length got < List.length tasks do
    List.iter
      (fun (c : Domain_pool.completion) ->
        Alcotest.(check bool) "ticket echoed once" false
          (Hashtbl.mem got c.Worker.ticket);
        Hashtbl.replace got c.Worker.ticket c.Worker.report)
      (Domain_pool.wait pool)
  done;
  Domain_pool.shutdown pool;
  List.iter
    (fun (t : Task.t) ->
      match Hashtbl.find_opt got (1000 + t.Task.t_id) with
      | None -> Alcotest.failf "task %d never completed" t.Task.t_id
      | Some r ->
        Alcotest.(check string) "report matches inline"
          (report_json reference.(t.Task.t_id))
          (report_json r))
    tasks;
  match Domain_pool.submit pool ~ticket:0 (List.hd tasks) with
  | () -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* ---- the batch caller is a worker ---- *)

let test_caller_is_a_worker () =
  (* a domains sweep counts its calling domain among the jobs: it spawns
     one domain fewer than it runs workers (none at --jobs 1), and every
     task still comes back through the executor, identical to inline *)
  let tasks =
    Task.of_market_slice ~mode:Task.Hybrid (Market.scaled 200)
    @ List.mapi
        (fun i name ->
          { Task.t_id = 200 + i; t_subject = Task.Bundled name;
            t_mode = Task.Hybrid; t_fault = None })
        Registry.names
  in
  let expected = json_of (Pool.run_inline tasks) in
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun jobs ->
      let reports, st =
        Pool.run (Pool.config ~jobs ~engine:Engine.Domains ()) tasks
      in
      let at what = Printf.sprintf "--jobs %d: %s" jobs what in
      Alcotest.(check string) (at "reports == inline") expected
        (json_of reports);
      Alcotest.(check int) (at "every task from the executor")
        (List.length tasks) st.Pool.s_from_workers;
      Alcotest.(check (option int)) (at "domains spawned")
        (Some (min jobs cores - 1))
        (Option.bind (Json.member "counters" st.Pool.s_metrics) (fun cs ->
             Option.bind (Json.member "domains" cs) Json.int)))
    [ 1; 2; 8 ]

(* ---- single-flight coalescing in the daemon ---- *)

let test_single_flight () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-sf-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    Server.config ~socket ~jobs:2 ~depth:64 ~max_clients:4
      ~engine:Engine.Domains
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  (* the daemon lives in a sibling domain of this test process; the stop
     hook shuts it down without signals *)
  let daemon = Domain.spawn (fun () -> Server.serve cfg) in
  let finish () =
    Atomic.set stop true;
    Domain.join daemon
  in
  match
    let c =
      match Proto.Client.connect ~retry_for:10.0 socket with
      | Ok c ->
        Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
        c
      | Error e -> Alcotest.failf "connect: %s" e
    in
    let task = List.hd (bundled_tasks Task.Both) in
    let n = 8 in
    for req = 0 to n - 1 do
      Proto.Client.send c
        (Proto.Submit
           { sb_req = req; sb_subject = task.Task.t_subject;
             sb_mode = task.Task.t_mode; sb_deadline = None; sb_fault = None;
             sb_trace = false })
    done;
    let coalesced = ref 0 in
    let verdicts = ref [] in
    let rec collect remaining =
      if remaining > 0 then
        match Proto.Client.recv c with
        | Error e -> Alcotest.failf "recv: %s" e
        | Ok (Proto.Verdict v) ->
          verdicts := report_json v.vd_report :: !verdicts;
          collect (remaining - 1)
        | Ok (Proto.Progress p) ->
          if p.pg_state = "coalesced" then incr coalesced;
          collect remaining
        | Ok (Proto.Shed s) -> Alcotest.failf "shed: %s" s.sh_reason
        | Ok _ -> Alcotest.fail "unexpected message"
    in
    collect n;
    Proto.Client.close c;
    (n, !coalesced, !verdicts)
  with
  | exception e ->
    ignore (finish ());
    raise e
  | n, coalesced, verdicts ->
    let st = finish () in
    Alcotest.(check int) "every submit answered" n (List.length verdicts);
    (match verdicts with
     | [] -> Alcotest.fail "no verdicts"
     | v :: rest ->
       List.iter
         (Alcotest.(check string) "all waiters get the one verdict" v)
         rest);
    Alcotest.(check int) "exactly one analysis ran" 1 st.Server.sv_analyses;
    Alcotest.(check int) "herd deduplicated" (n - 1)
      (st.Server.sv_coalesced + st.Server.sv_cache_hits);
    Alcotest.(check bool) "some submits coalesced" true (coalesced > 0);
    Alcotest.(check int) "server agrees on coalesced count" coalesced
      st.Server.sv_coalesced;
    Alcotest.(check int) "all served" n st.Server.sv_served

let test_domains_daemon_sheds_isolation () =
  (* a domain-engine daemon cannot act a fault or enforce a deadline —
     such submits must shed with a reason, not be silently mis-served *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-iso-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    Server.config ~socket ~jobs:1 ~engine:Engine.Domains
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  let daemon = Domain.spawn (fun () -> Server.serve cfg) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join daemon))
    (fun () ->
      let c =
        match Proto.Client.connect ~retry_for:10.0 socket with
        | Ok c ->
          Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
          c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      let task = List.hd (slice 1) in
      Proto.Client.send c
        (Proto.Submit
           { sb_req = 0; sb_subject = task.Task.t_subject;
             sb_mode = task.Task.t_mode; sb_deadline = Some 0.5;
             sb_fault = None; sb_trace = false });
      (match Proto.Client.recv c with
       | Ok (Proto.Shed _) -> ()
       | _ -> Alcotest.fail "deadline-bearing submit must shed");
      (* a clean submit on the same connection still works *)
      Proto.Client.send c
        (Proto.Submit
           { sb_req = 1; sb_subject = task.Task.t_subject;
             sb_mode = task.Task.t_mode; sb_deadline = None; sb_fault = None;
             sb_trace = false });
      let rec wait_verdict () =
        match Proto.Client.recv c with
        | Ok (Proto.Verdict v) ->
          Alcotest.(check string) "clean submit served" "static"
            v.vd_report.Verdict.r_analysis
        | Ok (Proto.Progress _) -> wait_verdict ()
        | _ -> Alcotest.fail "clean submit must get a verdict"
      in
      wait_verdict ();
      Proto.Client.close c);
  match Server.config ~socket ~engine:Engine.Domains ~deadline:1.0 () with
  | _ -> Alcotest.fail "domains + default deadline must be rejected"
  | exception Invalid_argument _ -> ()

(* ---- streaming under the domain engine ---- *)

let with_domains_daemon ?(jobs = 1) ?stream_buf name f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-%s-%d.sock" name (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    Server.config ~socket ~jobs ~engine:Engine.Domains ?stream_buf
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  let daemon = Domain.spawn (fun () -> Server.serve cfg) in
  match f socket with
  | exception e ->
    Atomic.set stop true;
    ignore (Domain.join daemon);
    raise e
  | v ->
    Atomic.set stop true;
    (Domain.join daemon, v)

let test_stream_differential_domains_half () =
  let reference =
    match !fork_streams with
    | Some s -> s
    | None -> Alcotest.fail "fork half of the differential did not run first"
  in
  let _, streams =
    with_domains_daemon "stream-dom" (fun socket -> streams_of_daemon socket)
  in
  List.iteri
    (fun i name ->
      Alcotest.(check (list string)) (name ^ ": domains stream == fork stream")
        (List.nth reference i) (List.nth streams i))
    stream_apps

let test_slow_subscriber_sheds_not_stalls () =
  (* a subscriber that never reads, behind a deliberately tiny outbound
     bound: every analysis still completes, verdicts stay bit-identical to
     the unsubscribed inline run, and the undeliverable trace frames are
     shed and counted — never queued without bound, never blocking *)
  let tasks =
    List.mapi
      (fun i name ->
        { Task.t_id = i; t_subject = Task.Bundled name; t_mode = Task.Hybrid;
          t_fault = None })
      stream_apps
  in
  let expected = List.map (fun r -> report_json r)
      (Array.to_list (Pool.run_inline tasks))
  in
  let st, got =
    with_domains_daemon ~stream_buf:256 "stream-slow" (fun socket ->
        let sub =
          match Proto.Client.connect ~retry_for:10.0 socket with
          | Ok c -> c
          | Error e -> Alcotest.failf "subscriber connect: %s" e
        in
        Proto.Client.send sub
          (Proto.Subscribe { su_cats = []; su_app = None; su_window = 0 });
        (* the subscriber never reads again; its frames cannot fit the
           256-byte bound and must be shed *)
        let c =
          match Proto.Client.connect ~retry_for:10.0 socket with
          | Ok c ->
            Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
            c
          | Error e -> Alcotest.failf "connect: %s" e
        in
        List.iter
          (fun (t : Task.t) ->
            Proto.Client.send c
              (Proto.Submit
                 { sb_req = t.Task.t_id; sb_subject = t.Task.t_subject;
                   sb_mode = t.Task.t_mode; sb_deadline = None;
                   sb_fault = None; sb_trace = false }))
          tasks;
        let got = Array.make (List.length tasks) "" in
        let rec collect remaining =
          if remaining > 0 then
            match Proto.Client.recv c with
            | Error e -> Alcotest.failf "recv: %s" e
            | Ok (Proto.Verdict v) ->
              got.(v.vd_req) <- report_json v.vd_report;
              collect (remaining - 1)
            | Ok (Proto.Progress _) -> collect remaining
            | Ok (Proto.Shed s) -> Alcotest.failf "shed: %s" s.sh_reason
            | Ok _ -> Alcotest.fail "unexpected message"
        in
        collect (List.length tasks);
        Proto.Client.close c;
        Proto.Client.close sub;
        got)
  in
  List.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "verdict %d bit-identical despite the subscriber" i)
        e got.(i))
    expected;
  Alcotest.(check bool) "the engines streamed events" true
    (st.Server.sv_trace_events > 0);
  Alcotest.(check bool) "undeliverable frames shed and counted" true
    (st.Server.sv_trace_lost > 0);
  Alcotest.(check int) "one subscriber" 1 st.Server.sv_subscribers

let suite =
  [ Alcotest.test_case "daemon: fork engine streams (differential, half 1)"
      `Quick test_stream_differential_fork_half;
    Alcotest.test_case
      "engines: inline == fork == domains (bundled + market)" `Quick
      test_engine_differential;
    Alcotest.test_case "engines: auto resolves on isolation needs" `Quick
      test_engine_auto_resolution;
    Alcotest.test_case "service: capacity bound evicts, recomputes identically"
      `Quick test_service_eviction;
    Alcotest.test_case "service: second chance keeps hot entries" `Quick
      test_service_second_chance;
    QCheck_alcotest.to_alcotest prop_service_hammer;
    Alcotest.test_case "domain pool: tickets echo, reports match inline"
      `Quick test_domain_pool_roundtrip;
    Alcotest.test_case "pool: the batch caller is a worker" `Quick
      test_caller_is_a_worker;
    Alcotest.test_case "daemon: single-flight coalesces a herd" `Quick
      test_single_flight;
    Alcotest.test_case "daemon: domains engine sheds isolation needs" `Quick
      test_domains_daemon_sheds_isolation;
    Alcotest.test_case
      "daemon: both engines stream identical events (differential, half 2)"
      `Quick test_stream_differential_domains_half;
    Alcotest.test_case "daemon: slow subscriber sheds, never stalls" `Quick
      test_slow_subscriber_sheds_not_stalls ]
