(* The observability subsystem: ring wraparound, Chrome trace export
   balance, metrics merging, flow provenance on every bundled detection
   app, and the pool's sweep-wide metrics (including time charged to
   crashed/timed-out apps). *)

module Ring = Ndroid_obs.Ring
module Event = Ndroid_obs.Event
module Export = Ndroid_obs.Export
module Metrics = Ndroid_obs.Metrics
module Json = Ndroid_report.Json
module Flow = Ndroid_report.Flow
module Verdict = Ndroid_report.Verdict
module H = Ndroid_apps.Harness
module Registry = Ndroid_apps.Registry
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Analysis = Ndroid_pipeline.Analysis
module Market = Ndroid_corpus.Market

(* ---- ring ---- *)

(* Emit [n] log events into a capacity-[cap] ring: the window must hold
   the newest [min n cap] events in order, with contiguous sequence
   numbers ending at [n - 1], whatever the wraparound count. *)
let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring window survives wraparound" ~count:200
    QCheck.(pair (int_range 16 64) (int_range 0 300))
    (fun (cap, n) ->
      let ring = Ring.create ~capacity:cap () in
      for i = 0 to n - 1 do
        Ring.emit_log ring (string_of_int i)
      done;
      let cap = Ring.capacity ring in
      let seqs = List.rev (Ring.fold (fun acc r -> r.Event.e_seq :: acc) [] ring) in
      let expect = List.init (min n cap) (fun i -> max 0 (n - cap) + i) in
      Ring.total ring = n && Ring.size ring = min n cap && seqs = expect)

let test_ring_disabled () =
  let t0 = Ring.total Ring.disabled in
  Ring.emit_log Ring.disabled "dropped";
  Ring.emit_invoke Ring.disabled "Lx;->m";
  Alcotest.(check int) "disabled ring records nothing" t0
    (Ring.total Ring.disabled)

let test_ring_tracing_gate () =
  let ring = Ring.create ~capacity:64 () in
  Ring.emit_insn ring ~addr:0x1000 Event.dummy_insn;
  Alcotest.(check int) "insn gated off without tracing" 0 (Ring.total ring);
  Ring.set_tracing ring true;
  Ring.emit_insn ring ~addr:0x1000 Event.dummy_insn;
  Alcotest.(check int) "insn recorded under tracing" 1 (Ring.total ring)

(* ---- chrome export ---- *)

(* A random interleaving of span begins/ends and instants, chopped by ring
   wraparound: the exporter must still emit, per lane, a balanced B/E
   sequence that never closes a span it hasn't opened. *)
let chrome_emitters : (Ring.t -> unit) array =
  [| (fun r -> Ring.emit_invoke r "La;->f");
     (fun r -> Ring.emit_return r "La;->f");
     (fun r -> Ring.emit_jni_begin r ~name:"La;->n" ~direction:"java->native" ~taint:0);
     (fun r -> Ring.emit_jni_end r ~name:"La;->n" ~direction:"java->native" ~taint:2);
     (fun r -> Ring.emit_gc_begin r);
     (fun r -> Ring.emit_gc_end r);
     (fun r -> Ring.emit_log r "line");
     (fun r -> Ring.emit_taint_reg r ~reg:3 ~taint:4);
     (fun r -> Ring.emit_sink_begin r ~sink:"send");
     (fun r -> Ring.emit_sink_end r ~sink:"send") |]

let prop_chrome_balanced =
  QCheck.Test.make ~name:"chrome export balances B/E per lane" ~count:150
    QCheck.(pair (int_range 16 40) (list_of_size Gen.(int_range 0 200)
                                      (int_bound (Array.length chrome_emitters - 1))))
    (fun (cap, picks) ->
      let ring = Ring.create ~capacity:cap ~tracing:true () in
      List.iter (fun i -> chrome_emitters.(i) ring) picks;
      let events = Export.chrome_events ring in
      let depth = Hashtbl.create 8 in
      List.for_all
        (fun j ->
          let field k = Json.member k j in
          let tid =
            match Option.bind (field "tid") Json.int with
            | Some t -> t
            | None -> -1
          in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          match Option.bind (field "ph") Json.str with
          | Some "B" ->
            Hashtbl.replace depth tid (d + 1);
            true
          | Some "E" ->
            Hashtbl.replace depth tid (d - 1);
            d > 0
          | Some "i" -> true
          | _ -> false)
        events
      && Hashtbl.fold (fun _ d ok -> ok && d = 0) depth true)

let test_chrome_document_shape () =
  let ring = Ring.create ~capacity:32 () in
  Ring.emit_jni_begin ring ~name:"La;->n" ~direction:"java->native" ~taint:0;
  Ring.emit_jni_end ring ~name:"La;->n" ~direction:"java->native" ~taint:0;
  match Json.of_string (Export.to_chrome_string ring) with
  | Error e -> Alcotest.failf "chrome output unparseable: %s" e
  | Ok doc ->
    (match Option.bind (Json.member "traceEvents" doc) Json.list with
     | Some (_ :: _) -> ()
     | _ -> Alcotest.fail "no traceEvents array");
    Alcotest.(check bool) "displayTimeUnit present" true
      (Json.member "displayTimeUnit" doc <> None)

let test_jsonl_lines () =
  let ring = Ring.create ~capacity:32 () in
  Ring.emit_source ring ~name:"getDeviceId" ~cls:"Lt;" ~addr:0x4a0 ~taint:0x400;
  Ring.emit_taint_mem ring ~addr:0x2a000000 ~taint:0x400;
  let lines =
    String.split_on_char '\n' (Export.to_jsonl_string ring)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" (Ring.size ring) (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Error e -> Alcotest.failf "bad jsonl line %s: %s" l e
      | Ok j ->
        Alcotest.(check bool) "line has kind" true (Json.member "kind" j <> None))
    lines

(* ---- flow log over the ring ---- *)

(* rendered flow-log lines of a ring that contain [needle] *)
let matching ring needle =
  Ring.fold
    (fun acc r ->
      match Event.render r with
      | Some line when H.contains_substring line needle -> line :: acc
      | _ -> acc)
    [] ring

let test_flow_log_shim () =
  let log = Ring.create () in
  Ring.logf log "JNI %s Begin" "Lcom/a;->f";
  Ring.emit_taint_reg log ~reg:2 ~taint:0x400;
  Ring.emit_invoke log "La;->m";
  (* typed events render into the legacy vocabulary; spans don't render *)
  Alcotest.(check int) "renderable count" 2 (Ring.lines log);
  Alcotest.(check bool) "legacy line" true
    (matching log "JNI Lcom/a;->f Begin" <> []);
  Alcotest.(check bool) "taint assign line" true
    (matching log "t(r2) :=" <> [])

(* ---- metrics ---- *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "bytecodes") 10;
  Metrics.add (Metrics.counter b "bytecodes") 32;
  Metrics.observe_int (Metrics.histogram a "task_bytecodes") 10;
  Metrics.observe_int (Metrics.histogram b "task_bytecodes") 32;
  Metrics.observe (Metrics.histogram b "task_seconds") 0.25;
  Metrics.merge_json a (Metrics.to_json b);
  Alcotest.(check int) "counter summed" 42
    (Metrics.value (Metrics.counter a "bytecodes"));
  Alcotest.(check int) "histogram counts summed" 2
    (Metrics.hist_count (Metrics.histogram a "task_bytecodes"));
  Alcotest.(check int) "new histogram arrives whole" 1
    (Metrics.hist_count (Metrics.histogram a "task_seconds"))

(* ---- provenance ---- *)

let dynamic_task name =
  { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Dynamic;
    t_fault = None }

(* Every bundled app that flags under the full dynamic analysis must
   explain each flow: a non-empty ordered hop chain that ends at the sink
   and crosses the JNI boundary at least once (the paper's Figs. 6-9
   narrative, reconstructed from the event stream). *)
let test_provenance_every_detection_app () =
  let flagged = ref 0 in
  List.iter
    (fun (app : H.app) ->
      let ring = Ring.create ~capacity:16384 () in
      let report = Analysis.run ~obs:ring (dynamic_task app.H.app_name) in
      List.iter
        (fun (f : Flow.t) ->
          incr flagged;
          let kinds = List.map (fun h -> h.Flow.h_kind) f.Flow.f_hops in
          if kinds = [] then
            Alcotest.failf "%s: flow %s has no provenance" app.H.app_name
              f.Flow.f_sink;
          Alcotest.(check string)
            (app.H.app_name ^ ": chain ends at the sink")
            "sink"
            (List.nth kinds (List.length kinds - 1));
          Alcotest.(check bool)
            (app.H.app_name ^ ": chain crosses JNI")
            true
            (List.mem "jni" kinds);
          Alcotest.(check bool)
            (app.H.app_name ^ ": chain starts at a source or a crossing")
            true
            (match kinds with
             | "source" :: _ | "jni" :: _ -> true
             | _ -> false))
        (Verdict.flows report.Verdict.r_verdict))
    Registry.all;
  (* the detection matrix has real positives; an empty loop proves nothing *)
  Alcotest.(check bool) "several apps flagged" true (!flagged >= 5)

let test_flow_json_provenance_roundtrip () =
  let flow hops =
    { Flow.f_taint = Ndroid_taint.Taint.imei; f_sink = "Socket.send";
      f_context = Flow.Java_ctx; f_site = "evil.example"; f_hops = hops }
  in
  let hops =
    [ { Flow.h_kind = "source"; h_site = "Lt;.getDeviceId@0x4a000000" };
      { Flow.h_kind = "jni"; h_site = "La;->n (java->native)" };
      { Flow.h_kind = "sink"; h_site = "Socket.send -> evil.example" } ]
  in
  List.iter
    (fun f ->
      let s = Json.to_string (Flow.to_json f) in
      match Result.bind (Json.of_string s) Flow.of_json with
      | Error e -> Alcotest.failf "flow roundtrip %s: %s" s e
      | Ok f' ->
        Alcotest.(check bool) "hops survive roundtrip" true
          (f.Flow.f_hops = f'.Flow.f_hops))
    [ flow hops; flow [] ];
  (* provenance-free flows keep the seed's exact JSON shape *)
  Alcotest.(check bool) "no provenance key when empty" true
    (Json.member "provenance" (Flow.to_json (flow [])) = None)

(* ---- live streaming: throttle, tap, codec ---- *)

module Stream = Ndroid_obs.Stream

let stream_kinds =
  [| Event.K_invoke; Event.K_return; Event.K_jni_begin; Event.K_log;
     Event.K_taint_reg; Event.K_source; Event.K_sink |]

let mk_event i (n, k) =
  { Stream.ev_seq = i; ev_kind = stream_kinds.(k);
    ev_name = "m" ^ string_of_int n; ev_detail = ""; ev_addr = 0;
    ev_taint = 0; ev_insn = "" }

let throttle_gen =
  QCheck.(pair (int_range 1 40)
            (list_of_size Gen.(int_range 0 250)
               (pair (int_bound 3)
                  (int_bound (Array.length stream_kinds - 1)))))

let run_throttle (window, picks) =
  let events = List.mapi mk_event picks in
  let th = Stream.throttle ~window in
  let kept =
    List.rev
      (List.fold_left
         (fun acc e -> if Stream.admit th e then e :: acc else acc)
         [] events)
  in
  (events, th, kept)

(* Throttling must keep the stream representative, not just smaller: for
   every input event — kept or suppressed — some survivor with the same
   (method, kind) key sits within one window of it. *)
let prop_throttle_window =
  QCheck.Test.make ~name:"throttle: a survivor within every window"
    ~count:300 throttle_gen
    (fun case ->
      let events, _, kept = run_throttle case in
      let window = fst case in
      List.for_all
        (fun (e : Stream.event) ->
          List.exists
            (fun (e' : Stream.event) ->
              e'.Stream.ev_name = e.Stream.ev_name
              && e'.Stream.ev_kind = e.Stream.ev_kind
              && e'.Stream.ev_seq <= e.Stream.ev_seq
              && e.Stream.ev_seq - e'.Stream.ev_seq < window)
            kept)
        events)

(* Source and sink events are the verdict-grade facts; no window may ever
   deduplicate one away. *)
let prop_throttle_terminal =
  QCheck.Test.make ~name:"throttle: terminal kinds always pass" ~count:300
    throttle_gen
    (fun case ->
      let events, _, kept = run_throttle case in
      let terminals l =
        List.length
          (List.filter (fun e -> Stream.terminal e.Stream.ev_kind) l)
      in
      terminals events = terminals kept)

(* Shedding is accounted, never silent: the dropped counter is exactly the
   events admit refused. *)
let prop_throttle_dropped_exact =
  QCheck.Test.make ~name:"throttle: dropped counts the suppressed exactly"
    ~count:300 throttle_gen
    (fun case ->
      let events, th, kept = run_throttle case in
      Stream.dropped th = List.length events - List.length kept)

let test_tap_wraparound_accounting () =
  let ring = Ring.create ~capacity:16 () in
  let cap = Ring.capacity ring in
  let tap = Stream.tap () in
  for i = 0 to 9 do
    Ring.emit_log ring (string_of_int i)
  done;
  Alcotest.(check int) "first drain sees everything" 10
    (List.length (Stream.drain tap ring));
  Alcotest.(check int) "nothing missed yet" 0 (Stream.tap_missed tap);
  Alcotest.(check int) "nothing overwritten yet" 0 (Ring.overwritten ring);
  for i = 0 to (3 * cap) - 1 do
    Ring.emit_log ring (string_of_int i)
  done;
  let second = Stream.drain tap ring in
  Alcotest.(check int) "drain bounded by capacity" cap (List.length second);
  Alcotest.(check int) "reclaimed prefix counted as missed" (2 * cap)
    (Stream.tap_missed tap);
  Alcotest.(check int) "ring counts every overwrite" (10 + (2 * cap))
    (Ring.overwritten ring);
  (* a cleared ring restarts the seq clock: the cursor resets, the
     monotonic counters do not *)
  Ring.clear ring;
  Alcotest.(check int) "overwritten survives clear" (10 + (2 * cap))
    (Ring.overwritten ring);
  Ring.emit_log ring "fresh";
  Alcotest.(check int) "cleared ring restarts the cursor" 1
    (List.length (Stream.drain tap ring));
  Alcotest.(check int) "a restart is not loss" (2 * cap)
    (Stream.tap_missed tap)

(* Satellite 6: one codec.  A `--trace` JSONL file line and a streamed
   event for the same ring cell must be byte-identical. *)
let test_stream_codec_matches_jsonl () =
  let ring = Ring.create ~capacity:64 ~tracing:true () in
  Ring.emit_source ring ~name:"getDeviceId" ~cls:"Lt;" ~addr:0x4a0
    ~taint:0x400;
  Ring.emit_invoke ring "La;->f";
  Ring.emit_jni_begin ring ~name:"La;->n" ~direction:"java->native"
    ~taint:0x2;
  Ring.emit_insn ring ~addr:0x1000 Event.dummy_insn;
  Ring.emit_taint_mem ring ~addr:0x2a000000 ~taint:0x400;
  Ring.emit_log ring "line";
  Ring.emit_sink_begin ring ~sink:"send";
  Ring.emit_sink_end ring ~sink:"send";
  Ring.emit_jni_end ring ~name:"La;->n" ~direction:"java->native" ~taint:0x2;
  let file_lines =
    String.split_on_char '\n' (Export.to_jsonl_string ring)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let stream_lines =
    List.map
      (fun ev -> Json.to_string (Stream.event_json ev))
      (Stream.drain (Stream.tap ()) ring)
  in
  Alcotest.(check (list string)) "stream lines byte-equal file lines"
    file_lines stream_lines

let prop_event_codec_roundtrip =
  QCheck.Test.make ~name:"stream codec roundtrips every kind" ~count:300
    QCheck.(quad small_nat
              (int_bound (List.length Event.all_kinds - 1))
              printable_string
              (pair (int_bound 0xfffff) (int_bound 0xfff)))
    (fun (seq, ki, name, (addr, taint)) ->
      let ev =
        { Stream.ev_seq = seq; ev_kind = List.nth Event.all_kinds ki;
          ev_name = name; ev_detail = ""; ev_addr = addr; ev_taint = taint;
          ev_insn = "" }
      in
      match Stream.event_of_json (Stream.event_json ev) with
      | Ok ev' -> ev' = ev
      | Error _ -> false)

(* ---- pool metrics ---- *)

let counter_of stats name =
  Option.bind (Json.member "counters" stats.Pool.s_metrics) (Json.member name)
  |> Fun.flip Option.bind Json.int
  |> Option.value ~default:0

let hist_count_of stats name =
  Option.bind (Json.member "histograms" stats.Pool.s_metrics)
    (Json.member name)
  |> Fun.flip Option.bind (Json.member "count")
  |> Fun.flip Option.bind Json.int
  |> Option.value ~default:0

let test_pool_metrics_cover_timeouts () =
  let tasks =
    List.map
      (fun (t : Task.t) ->
        if t.Task.t_id = 1 then { t with Task.t_fault = Some Task.Hang } else t)
      (Task.of_market_slice (Market.scaled 24))
  in
  let total = List.length tasks in
  let _, stats = Pool.run (Pool.config ~jobs:2 ~timeout:0.3 ()) tasks in
  Alcotest.(check int) "timeout recorded" 1 stats.Pool.s_timeouts;
  Alcotest.(check int) "worker_timeouts counter" 1
    (counter_of stats "worker_timeouts");
  Alcotest.(check int) "every app in the tasks counter" total
    (counter_of stats "tasks" + counter_of stats "cache_hits");
  (* the satellite fix: the hung app's lost wall time is charged to the
     sweep's analysis seconds and its task lands in the latency histogram *)
  Alcotest.(check int) "task_seconds histogram covers the timeout" total
    (hist_count_of stats "task_seconds");
  Alcotest.(check bool) "lost time charged" true
    (stats.Pool.s_analyze_cpu >= 0.25)

let suite =
  [ QCheck_alcotest.to_alcotest prop_ring_wraparound;
    Alcotest.test_case "ring: disabled instance inert" `Quick
      test_ring_disabled;
    Alcotest.test_case "ring: tracing gates instruction events" `Quick
      test_ring_tracing_gate;
    QCheck_alcotest.to_alcotest prop_chrome_balanced;
    Alcotest.test_case "chrome: document shape" `Quick
      test_chrome_document_shape;
    Alcotest.test_case "jsonl: one parseable object per event" `Quick
      test_jsonl_lines;
    Alcotest.test_case "flow-log: shim renders legacy lines" `Quick
      test_flow_log_shim;
    Alcotest.test_case "metrics: registries merge" `Quick test_metrics_merge;
    QCheck_alcotest.to_alcotest prop_throttle_window;
    QCheck_alcotest.to_alcotest prop_throttle_terminal;
    QCheck_alcotest.to_alcotest prop_throttle_dropped_exact;
    Alcotest.test_case "stream: tap accounts wraparound and clear" `Quick
      test_tap_wraparound_accounting;
    Alcotest.test_case "stream: codec byte-equal to jsonl export" `Quick
      test_stream_codec_matches_jsonl;
    QCheck_alcotest.to_alcotest prop_event_codec_roundtrip;
    Alcotest.test_case "provenance: every detection app explained" `Quick
      test_provenance_every_detection_app;
    Alcotest.test_case "provenance: flow json roundtrip" `Quick
      test_flow_json_provenance_roundtrip;
    Alcotest.test_case "pool: metrics cover crashed and timed-out apps" `Quick
      test_pool_metrics_cover_timeouts ]
