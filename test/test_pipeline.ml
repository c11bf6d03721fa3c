(* The batch pipeline: canonical JSON, the unified verdict, the sharded
   worker pool (timeouts, crash isolation, fault injection, determinism
   across --jobs) and the on-disk result cache. *)

module T = Ndroid_taint.Taint
module Json = Ndroid_report.Json
module Flow = Ndroid_report.Flow
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Cache = Ndroid_pipeline.Cache
module Analysis = Ndroid_pipeline.Analysis
module Shard_queue = Ndroid_pipeline.Shard_queue
module Wire = Ndroid_pipeline.Wire
module Market = Ndroid_corpus.Market

let flow ?(sink = "Socket.send") ?(site = "Lcom/a;->leak") ?(ctx = Flow.Java_ctx)
    taint =
  { Flow.f_taint = taint; f_sink = sink; f_context = ctx; f_site = site;
    f_hops = [] }

let sample_report =
  { Verdict.r_app = "demo";
    r_analysis = "static";
    r_verdict = Verdict.Flagged [ flow T.imei ];
    r_meta = [ ("jni_sites", Json.Int 2); ("classification", Json.Null) ] }

(* ---- canonical JSON ---- *)

let test_json_golden () =
  (* exact bytes: sorted keys, no whitespace, stable flow encoding — the
     schema `ndroid analyze --json` and the cache commit to *)
  Alcotest.(check string) "canonical report"
    "{\"analysis\":\"static\",\"app\":\"demo\",\"meta\":{\"classification\":null,\"jni_sites\":2},\"result\":{\"flows\":[{\"context\":\"java\",\"sink\":\"Socket.send\",\"site\":\"Lcom/a;->leak\",\"taint\":\"0x400\"}],\"verdict\":\"flagged\"}}"
    (Json.to_string (Verdict.report_to_json sample_report))

let test_json_sorted_keys () =
  let j = Json.Obj [ ("zeta", Json.Int 1); ("alpha", Json.Int 2) ] in
  Alcotest.(check string) "keys sorted" "{\"alpha\":2,\"zeta\":1}"
    (Json.to_string j)

let test_json_roundtrip () =
  let reports =
    [ sample_report;
      { sample_report with Verdict.r_verdict = Verdict.Clean };
      { sample_report with Verdict.r_verdict = Verdict.Crashed "sig 9" };
      { sample_report with Verdict.r_verdict = Verdict.Timeout } ]
  in
  List.iter
    (fun r ->
      let s = Json.to_string (Verdict.report_to_json r) in
      match Result.bind (Json.of_string s) Verdict.report_of_json with
      | Error e -> Alcotest.failf "roundtrip of %s: %s" s e
      | Ok r' ->
        Alcotest.(check bool) "report survives json roundtrip" true
          (Verdict.report_equal r r'))
    reports

let test_verdict_normalize () =
  Alcotest.(check bool) "empty flagged is clean" true
    (Verdict.equal (Verdict.Flagged []) Verdict.Clean);
  let a = flow T.imei and b = flow ~sink:"sendto" T.contacts in
  Alcotest.(check bool) "flow order irrelevant" true
    (Verdict.equal (Verdict.Flagged [ a; b ]) (Verdict.Flagged [ b; a; a ]))

(* ---- wire protocol ---- *)

let test_wire_roundtrip () =
  let r, w = Unix.pipe () in
  Wire.write_frame w "hello";
  Wire.write_frame w "";
  Wire.write_frame w (String.make 10_000 'x');
  Alcotest.(check (option string)) "frame 1" (Some "hello") (Wire.read_frame r);
  Alcotest.(check (option string)) "frame 2" (Some "") (Wire.read_frame r);
  Alcotest.(check (option string)) "frame 3"
    (Some (String.make 10_000 'x'))
    (Wire.read_frame r);
  Unix.close w;
  Alcotest.(check (option string)) "eof" None (Wire.read_frame r);
  Unix.close r

let test_wire_incremental () =
  (* a frame delivered byte-by-byte must come out whole *)
  let r, w = Unix.pipe () in
  let reader = Wire.create_reader () in
  let len = 5 in
  let raw =
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.blit_string "abcde" 0 b 4 len;
    Bytes.to_string b
  in
  let got = ref [] in
  String.iter
    (fun c ->
      ignore (Unix.write_substring w (String.make 1 c) 0 1);
      match Wire.drain reader r with
      | `Frames fs -> got := !got @ fs
      | `Eof _ | `Oversized _ -> Alcotest.fail "unexpected eof")
    raw;
  Unix.close w;
  (match Wire.drain reader r with
   | `Eof fs -> got := !got @ fs
   | `Frames _ | `Oversized _ -> Alcotest.fail "expected eof");
  Unix.close r;
  Alcotest.(check (list string)) "reassembled" [ "abcde" ] !got

let test_wire_oversized () =
  (* a prefix over the cap is refused by both readers; the incremental
     one still hands over the frames before it, then discards the rest *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (Wire.max_frame + 1));
  let r, w = Unix.pipe () in
  ignore (Unix.write w huge 0 4);
  Alcotest.(check (option string)) "read_frame refuses" None
    (Wire.read_frame r);
  let reader = Wire.create_reader () in
  Wire.write_frame w "ok";
  ignore (Unix.write w huge 0 4);
  (match Wire.drain reader r with
   | `Oversized fs ->
     Alcotest.(check (list string)) "frames before it" [ "ok" ] fs
   | _ -> Alcotest.fail "expected the oversized prefix to be reported");
  Wire.write_frame w "after";
  (match Wire.drain reader r with
   | `Oversized [] -> ()
   | _ -> Alcotest.fail "a refused stream yields no more frames");
  Unix.close w;
  (match Wire.drain reader r with
   | `Eof [] -> ()
   | _ -> Alcotest.fail "expected a bare eof");
  Unix.close r

(* ---- shard queue ---- *)

let test_shard_queue () =
  let q = Shard_queue.create ~shards:2 [ 0; 1; 2; 3; 4; 5 ] in
  (* shard 0 was dealt 0;2;4 in order *)
  Alcotest.(check (option int)) "own front" (Some 0) (Shard_queue.pop q ~shard:0);
  Alcotest.(check (option int)) "own order" (Some 2) (Shard_queue.pop q ~shard:0);
  Alcotest.(check (option int)) "own tail" (Some 4) (Shard_queue.pop q ~shard:0);
  (* shard 0 is dry: it must steal from shard 1's back half *)
  Alcotest.(check bool) "steal succeeds" true
    (Shard_queue.pop q ~shard:0 <> None);
  Alcotest.(check bool) "steal counted" true (Shard_queue.steals q > 0);
  let rec drain n = if Shard_queue.pop q ~shard:1 <> None then drain (n + 1) else n in
  ignore (drain 0);
  Alcotest.(check int) "all consumed" 0 (Shard_queue.remaining q);
  Alcotest.check_raises "bounded"
    (Invalid_argument "Shard_queue.create: 3 items exceed the 2-task bound")
    (fun () -> ignore (Shard_queue.create ~shards:1 ~capacity:2 [ 1; 2; 3 ]))

(* ---- the pool ---- *)

let slice n = Task.of_market_slice (Market.scaled n)

let with_fault fault id tasks =
  List.map
    (fun (t : Task.t) ->
      if t.Task.t_id = id then { t with Task.t_fault = Some fault } else t)
    tasks

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

let test_pool_matches_inline () =
  let tasks = slice 300 in
  let inline = Pool.run_inline tasks in
  let pooled, stats = Pool.run (Pool.config ~jobs:4 ()) tasks in
  Alcotest.(check string) "jobs 4 bit-identical to inline" (json_of inline)
    (json_of pooled);
  Alcotest.(check int) "all from workers" 300 stats.Pool.s_from_workers

let test_pool_timeout () =
  let tasks = with_fault Task.Hang 2 (slice 64) in
  let reports, stats =
    Pool.run (Pool.config ~jobs:2 ~timeout:0.3 ()) tasks
  in
  Alcotest.(check int) "one timeout" 1 stats.Pool.s_timeouts;
  (match reports.(2).Verdict.r_verdict with
   | Verdict.Timeout -> ()
   | v -> Alcotest.failf "expected timeout, got %a" Verdict.pp v);
  Alcotest.(check int) "every app answered" 64 (Array.length reports);
  Array.iteri
    (fun i r ->
      if i <> 2 then
        Alcotest.(check bool)
          (Printf.sprintf "app %d unaffected" i)
          false
          (r.Verdict.r_verdict = Verdict.Timeout))
    reports

let test_pool_crash_respawn () =
  let tasks = with_fault Task.Crash 1 (slice 64) in
  let reports, stats = Pool.run (Pool.config ~jobs:2 ()) tasks in
  (match reports.(1).Verdict.r_verdict with
   | Verdict.Crashed why ->
     Alcotest.(check string) "deterministic crash reason"
       "worker exited with status 66" why
   | v -> Alcotest.failf "expected crash, got %a" Verdict.pp v);
  Alcotest.(check int) "one crash" 1 stats.Pool.s_crashed;
  Alcotest.(check int) "every app completed by the engine, the crash too" 64
    stats.Pool.s_from_workers;
  Alcotest.(check bool) "worker respawned" true (stats.Pool.s_respawns >= 1);
  (* the crash cost exactly one app: everything else has a real verdict *)
  Array.iteri
    (fun i r ->
      if i <> 1 then
        match r.Verdict.r_verdict with
        | Verdict.Crashed _ | Verdict.Timeout ->
          Alcotest.failf "app %d lost to the crash" i
        | _ -> ())
    reports

let test_pool_injected_kill () =
  let tasks = slice 64 in
  let reports, stats =
    Pool.run (Pool.config ~jobs:2 ~kill_worker_after:5 ()) tasks
  in
  Alcotest.(check int) "kill injected" 1 stats.Pool.s_injected_kills;
  Alcotest.(check int) "no result lost" 64 (Array.length reports);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "placeholder never leaks" false
        (r.Verdict.r_app = "?"))
    reports;
  (* at most the victim's in-flight app crashes; determinism aside, the
     sweep must account for every app *)
  Alcotest.(check bool) "at most one collateral verdict" true
    (stats.Pool.s_crashed <= 1)

let with_temp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-cache-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
       | names ->
         Array.iter
           (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           names
       | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~dir (Cache.create ~dir))

let test_cache_hit_miss () =
  with_temp_cache (fun ~dir:_ cache ->
      let tasks = slice 64 in
      let cold = Pool.run_inline ~cache tasks in
      Alcotest.(check int) "cold run misses everything" 64 (Cache.misses cache);
      Alcotest.(check int) "cold run hits nothing" 0 (Cache.hits cache);
      let warm = Pool.run_inline ~cache tasks in
      Alcotest.(check int) "warm run hits everything" 64 (Cache.hits cache);
      Alcotest.(check string) "cached verdicts identical" (json_of cold)
        (json_of warm))

let test_cache_feeds_pool () =
  with_temp_cache (fun ~dir:_ cache ->
      let tasks = slice 64 in
      let cold, _ = Pool.run (Pool.config ~jobs:2 ~cache ()) tasks in
      let warm, stats = Pool.run (Pool.config ~jobs:2 ~cache ()) tasks in
      Alcotest.(check int) "warm pool run is all cache" 64
        stats.Pool.s_cache_hits;
      Alcotest.(check int) "no worker work left" 0 stats.Pool.s_from_workers;
      Alcotest.(check string) "identical bytes" (json_of cold) (json_of warm))

let test_cache_corrupt_entry () =
  with_temp_cache (fun ~dir cache ->
      let task = List.hd (slice 1) in
      let key = Analysis.digest task in
      Cache.store cache ~key (Analysis.run task);
      Alcotest.(check bool) "stored entry readable" true
        (Cache.find cache ~key <> None);
      (* truncate the entry behind the cache's back: must become a miss,
         and a fresh store must repair it *)
      let path = Filename.concat dir (key ^ ".json") in
      let oc = open_out_bin path in
      output_string oc "{\"analysis\":";
      close_out oc;
      Alcotest.(check bool) "torn entry is a miss" true
        (Cache.find cache ~key = None);
      Cache.store cache ~key (Analysis.run task);
      Alcotest.(check bool) "overwritten entry readable again" true
        (Cache.find cache ~key <> None))

let test_digest_sensitivity () =
  let t = List.hd (slice 4) in
  let d_static = Analysis.digest t in
  let d_dynamic = Analysis.digest { t with Task.t_mode = Task.Dynamic } in
  Alcotest.(check bool) "mode changes the key" true (d_static <> d_dynamic);
  let t' = List.nth (slice 4) 1 in
  Alcotest.(check bool) "app changes the key" true
    (d_static <> Analysis.digest t')

(* Straggler isolation on the forked engine: a sweep with hung and
   crashing apps gives every app the same verdict at --jobs 1 and 3, each
   hang costs one budget on one worker, and nothing is lost *)
let test_faulted_sweep_jobs_invariant () =
  let tasks =
    List.map
      (fun (t : Task.t) ->
        let fault =
          match t.Task.t_id with
          | 7 | 41 -> Some Task.Hang
          | 13 | 52 -> Some Task.Crash
          | _ -> None
        in
        { t with Task.t_fault = fault })
      (slice 60)
  in
  let sweep jobs = Pool.run (Pool.config ~jobs ~timeout:0.2 ()) tasks in
  let r1, s1 = sweep 1 in
  let r3, s3 = sweep 3 in
  Alcotest.(check string) "--jobs 1 and --jobs 3 bit-identical" (json_of r1)
    (json_of r3);
  List.iter
    (fun (s : Pool.stats) ->
      Alcotest.(check int) "every app answered" (List.length tasks)
        s.Pool.s_from_workers;
      Alcotest.(check int) "each hang timed out" 2 s.Pool.s_timeouts;
      Alcotest.(check int) "each crash isolated" 2 s.Pool.s_crashed)
    [ s1; s3 ];
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "app %d timed out" i)
        true
        (r3.(i).Verdict.r_verdict = Verdict.Timeout))
    [ 7; 41 ]

(* A batch's tasks are already in memory, so the executor's queues take
   a sweep of any size.  A bound there would refuse a task that the
   executor still counts as in flight, and its [wait] would never
   return. *)
let test_queue_takes_whole_sweep () =
  let q = Shard_queue.create_empty ~shards:2 () in
  let n = 1_000_001 in
  let accepted = ref 0 in
  for i = 0 to n - 1 do
    if Shard_queue.push q ~shard:i i then incr accepted
  done;
  Alcotest.(check int) "every push accepted" n !accepted;
  Alcotest.(check int) "every task queued" n (Shard_queue.remaining q)

let suite =
  [ Alcotest.test_case "json: golden report bytes" `Quick test_json_golden;
    Alcotest.test_case "json: object keys sorted" `Quick test_json_sorted_keys;
    Alcotest.test_case "json: report roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "verdict: normalization" `Quick test_verdict_normalize;
    Alcotest.test_case "wire: frame roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: byte-by-byte reassembly" `Quick
      test_wire_incremental;
    Alcotest.test_case "queue: shard order and stealing" `Quick
      test_shard_queue;
    Alcotest.test_case "pool: jobs 4 equals inline" `Quick
      test_pool_matches_inline;
    Alcotest.test_case "pool: hung app records timeout" `Quick
      test_pool_timeout;
    Alcotest.test_case "pool: crash isolates and respawns" `Quick
      test_pool_crash_respawn;
    Alcotest.test_case "pool: injected kill loses nothing" `Quick
      test_pool_injected_kill;
    Alcotest.test_case "cache: inline hit/miss accounting" `Quick
      test_cache_hit_miss;
    Alcotest.test_case "cache: warm pool skips workers" `Quick
      test_cache_feeds_pool;
    Alcotest.test_case "cache: corrupt entry is a miss" `Quick
      test_cache_corrupt_entry;
    Alcotest.test_case "cache: digests separate modes and apps" `Quick
      test_digest_sensitivity;
    Alcotest.test_case "wire: oversized prefix refused" `Quick
      test_wire_oversized;
    Alcotest.test_case "pool: faulted fork sweep identical across --jobs"
      `Quick test_faulted_sweep_jobs_invariant;
    Alcotest.test_case "queue: executor queues take a whole sweep" `Quick
      test_queue_takes_whole_sweep ]
