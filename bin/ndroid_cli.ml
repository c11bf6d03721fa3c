(* The ndroid command-line tool: run scenario apps under any analysis
   configuration, print detection matrices, run the market study, and drive
   apps with random input.

     ndroid list
     ndroid run QQPhoneBook3.5 --mode ndroid --log
     ndroid matrix
     ndroid study --total 50000
     ndroid monkey --seeds 30 --events 80
*)

module H = Ndroid_apps.Harness
module M = Ndroid_apps.Monkey
module A = Ndroid_android
module Market = Ndroid_corpus.Market
module Stats = Ndroid_corpus.Stats
module Registry = Ndroid_apps.Registry
module Task = Ndroid_pipeline.Task
module Engine = Ndroid_pipeline.Engine
module Pool = Ndroid_pipeline.Pool
module Cache = Ndroid_pipeline.Cache
module Server = Ndroid_pipeline.Server
module Proto = Ndroid_pipeline.Proto
module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Ring = Ndroid_obs.Ring
module Export = Ndroid_obs.Export
module Stream = Ndroid_obs.Stream
module Event = Ndroid_obs.Event

let registry : H.app list = Registry.all
let find_app = Cli_args.find_app
let write_file = Cli_args.write_file
let read_file = Cli_args.read_file

let mode_of_string = function
  | "vanilla" -> Ok H.Vanilla
  | "taintdroid" -> Ok H.Taintdroid_only
  | "droidscope" -> Ok H.Droidscope_mode
  | "ndroid" -> Ok H.Ndroid_full
  | s -> Error (Printf.sprintf "unknown mode %S" s)

(* ---- commands ---- *)

let cmd_list () =
  List.iter
    (fun a -> Printf.printf "%-22s [%s] %s\n" a.H.app_name a.H.app_case a.H.description)
    registry;
  0

let run_with_policy mode block app =
  if not block then H.run mode app
  else begin
    (* boot manually so the Block policy is set before the app runs *)
    let device = H.boot app in
    let nd =
      match mode with
      | H.Ndroid_full -> Some (Ndroid_core.Ndroid.attach device)
      | H.Vanilla ->
        Ndroid_taintdroid.Taintdroid.vanilla device;
        None
      | H.Taintdroid_only ->
        Ndroid_taintdroid.Taintdroid.attach device;
        None
      | H.Droidscope_mode ->
        Ndroid_core.Droidscope.attach device;
        None
    in
    A.Sink_monitor.set_policy
      (Ndroid_runtime.Device.monitor device)
      A.Sink_monitor.Block;
    (try
       ignore
         (Ndroid_runtime.Device.run device (fst app.H.entry) (snd app.H.entry) [||])
     with Ndroid_dalvik.Vm.Java_throw _ -> ());
    let leaks = A.Sink_monitor.leaks (Ndroid_runtime.Device.monitor device) in
    { H.mode;
      detected = leaks <> [];
      leaks;
      flow_log =
        (match nd with
         | Some n -> Ndroid_core.Ndroid.log n
         | None -> []);
      stats = (match nd with Some n -> Some (Ndroid_core.Ndroid.stats n) | None -> None);
      transmissions =
        A.Network.transmissions (Ndroid_runtime.Device.net device);
      file_writes = A.Filesystem.writes (Ndroid_runtime.Device.fs device);
      device;
      analysis = nd }
  end

let cmd_run name mode_s show_log report block =
  match (find_app name, mode_of_string mode_s) with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    1
  | Ok app, Ok mode when report -> (
    let o = run_with_policy mode block app in
    match o.H.analysis with
    | Some nd ->
      Ndroid_core.Report.print ~app_name:app.H.app_name
        ~transmissions:o.H.transmissions ~file_writes:o.H.file_writes nd;
      0
    | None ->
      prerr_endline "--report needs --mode ndroid";
      1)
  | Ok app, Ok mode ->
    let o = run_with_policy mode block app in
    Printf.printf "app:      %s [%s]\n" app.H.app_name app.H.app_case;
    Printf.printf "analysis: %s\n" (H.mode_name mode);
    Printf.printf "detected: %b\n" o.H.detected;
    List.iter
      (fun l -> Format.printf "leak: %a@." A.Sink_monitor.pp_leak l)
      o.H.leaks;
    List.iter
      (fun t ->
        Printf.printf "traffic to %s (%d bytes)\n" t.A.Network.dest
          (String.length t.A.Network.payload))
      o.H.transmissions;
    List.iter
      (fun w -> Printf.printf "file write: %s\n" w.A.Filesystem.w_path)
      o.H.file_writes;
    (match o.H.stats with
     | Some s -> Format.printf "stats: %a@." Ndroid_core.Ndroid.pp_stats s
     | None -> ());
    if show_log && o.H.flow_log <> [] then begin
      print_endline "--- flow log ---";
      List.iter print_endline o.H.flow_log
    end;
    0

let cmd_matrix () =
  Printf.printf "%-22s %-9s %-11s %-11s %s\n" "app" "vanilla" "TaintDroid"
    "DroidScope" "NDroid";
  List.iter
    (fun app ->
      let d mode = if (H.run mode app).H.detected then "detect" else "miss" in
      Printf.printf "%-22s %-9s %-11s %-11s %s\n%!" app.H.app_name (d H.Vanilla)
        (d H.Taintdroid_only) (d H.Droidscope_mode) (d H.Ndroid_full))
    registry;
  0

let cmd_study total =
  let params =
    match total with Some n -> Market.scaled n | None -> Market.default_params
  in
  let s = Stats.summarize (Market.generate params) in
  Format.printf "%a@.%a@." Stats.pp_summary s Stats.pp_fig2 s;
  0

let cmd_disasm name =
  match find_app name with
  | Error e ->
    prerr_endline e;
    1
  | Ok app ->
    List.iter
      (fun (lib_name, prog) ->
        Printf.printf "library %s (%s, %d bytes at 0x%x):\n" lib_name
          (match Ndroid_arm.Asm.mode prog with
           | Ndroid_arm.Cpu.Arm -> "ARM"
           | Ndroid_arm.Cpu.Thumb -> "Thumb")
          (Ndroid_arm.Asm.size prog) (Ndroid_arm.Asm.base prog);
        Format.printf "%a@." Ndroid_arm.Disasm.pp_listing
          (Ndroid_arm.Disasm.program prog))
      (app.H.build_libs Ndroid_runtime.Device.host_fn_addr);
    0

let cmd_scan total =
  let params = Market.scaled total in
  Printf.printf "materializing and scanning %d APKs at the artifact level...\n%!"
    params.Market.total;
  let module Apk = Ndroid_corpus.Apk in
  let module Classifier = Ndroid_corpus.Classifier in
  let counts = Hashtbl.create 8 in
  Seq.iter
    (fun app ->
      let verdict = Apk.classify (Apk.of_app_model app) in
      let key = Classifier.classification_name verdict in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Market.generate params);
  Hashtbl.iter (fun k v -> Printf.printf "  %-20s %d\n" k v) counts;
  0

let cmd_pack name dir =
  match find_app name with
  | Error e ->
    prerr_endline e;
    1
  | Ok app ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun (entry, bytes) ->
        let path = Filename.concat dir (Filename.basename entry) in
        write_file path bytes;
        Printf.printf "wrote %s\n" path)
      (Ndroid_static.Drive.apk_of_app app).Ndroid_corpus.Apk.entries;
    0

let cmd_classify dir =
  match Sys.readdir dir with
  | exception Sys_error e ->
    prerr_endline e;
    1
  | names ->
    let entries =
      Array.to_list names
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             if Sys.is_directory path then None
             else
               let key =
                 if Filename.check_suffix n ".so" then "lib/armeabi/" ^ n else n
               in
               Some (key, read_file path))
    in
    let apk = { Ndroid_corpus.Apk.apk_package = dir; entries } in
    (match Ndroid_corpus.Apk.classify apk with
     | verdict ->
       Printf.printf "%s: %s\n" dir
         (Ndroid_corpus.Classifier.classification_name verdict);
       List.iter
         (fun (p, data) -> Printf.printf "  %-28s %6d bytes\n" p (String.length data))
         entries;
       0
     | exception Ndroid_dalvik.Dexfile.Bad_dex m ->
       Printf.printf "corrupt dex: %s\n" m;
       1)

let cmd_dump name =
  match find_app name with
  | Error e ->
    prerr_endline e;
    1
  | Ok app ->
    Format.printf "%a" Ndroid_dalvik.Dexdump.pp_classes app.H.classes;
    let natives = Ndroid_dalvik.Dexdump.native_methods app.H.classes in
    Printf.printf "native method declarations (%d):\n" (List.length natives);
    List.iter
      (fun (c, m, sym) -> Printf.printf "  %s->%s  ->  %s\n" c m sym)
      natives;
    0

(* ---- the unified analyze entry point -------------------------------- *)

(* Per-phase stats for the sweep, including Dalvik throughput (bytecodes/sec
   over the measured analysis time) and JNI-crossing counts.  Emitted on
   stderr so stdout stays exactly the canonical report array. *)
let stats_to_json ~bytecodes ~jni_crossings ~focused_methods
    ~skipped_bytecodes ~analyze_seconds phases =
  let rate =
    if analyze_seconds > 0.0 then float_of_int bytecodes /. analyze_seconds
    else 0.0
  in
  Json.Obj
    (phases
     @ [ ("analyze_seconds", Json.Float analyze_seconds);
         ("bytecodes", Json.Int bytecodes);
         ("bytecodes_per_sec", Json.Float rate);
         ("jni_crossings", Json.Int jni_crossings);
         ("focused_methods", Json.Int focused_methods);
         ("skipped_bytecodes", Json.Int skipped_bytecodes) ])

let cmd_analyze names mode json jobs timeout cache_dir market engine
    trace_file =
  match Cli_args.tasks_of_request names market mode with
  | Error e ->
    prerr_endline e;
    1
  | Ok tasks ->
    let cache = Option.map (fun dir -> Cache.create ~dir) cache_dir in
    (* the trace ring lives in this process; worker forks could not share
       it, so --trace always takes the in-process path *)
    let obs =
      Option.map (fun _ -> Ring.create ~capacity:262144 ~tracing:true ())
        trace_file
    in
    if obs <> None && (jobs > 1 || timeout <> None) then
      prerr_endline
        "note: --trace records in-process; ignoring --jobs/--timeout";
    let reports, stats_json =
      if
        obs <> None
        || (engine = Engine.Auto && jobs <= 1 && timeout = None)
      then begin
        let progress ~done_ ~total = Printf.eprintf "\r%d/%d%!" done_ total in
        let progress = if json then None else Some progress in
        let t0 = Unix.gettimeofday () in
        let reports = Pool.run_inline ?cache ?obs ?progress tasks in
        if progress <> None then Printf.eprintf "\n%!";
        let seconds = Unix.gettimeofday () -. t0 in
        let bytecodes, jni_crossings, focused_methods, skipped_bytecodes =
          Pool.counters_of_reports reports
        in
        let metrics =
          match obs with
          | Some ring ->
            [ ("metrics", Ndroid_obs.Metrics.to_json (Ring.metrics ring)) ]
          | None -> []
        in
        ( reports,
          stats_to_json ~bytecodes ~jni_crossings ~focused_methods
            ~skipped_bytecodes ~analyze_seconds:seconds
            (("wall_seconds", Json.Float seconds) :: metrics) )
      end
      else begin
        let progress ~done_ ~total = Printf.eprintf "\r%d/%d%!" done_ total in
        let progress = if json then None else Some progress in
        let reports, s =
          Pool.run
            (Pool.config ~jobs ?timeout ?cache ?progress ~engine ())
            tasks
        in
        if progress <> None then Printf.eprintf "\n%!";
        ( reports,
          stats_to_json ~bytecodes:s.Pool.s_bytecodes
            ~jni_crossings:s.Pool.s_jni_crossings
            ~focused_methods:s.Pool.s_focused_methods
            ~skipped_bytecodes:s.Pool.s_skipped_bytecodes
            ~analyze_seconds:s.Pool.s_analyze_cpu
            [ ("wall_seconds", Json.Float s.Pool.s_wall);
              ("engine", Json.Str s.Pool.s_engine);
              ("cache_pass_seconds", Json.Float s.Pool.s_cache_pass);
              ("fork_seconds", Json.Float s.Pool.s_fork);
              ("wire_seconds", Json.Float s.Pool.s_wire);
              ("collect_seconds", Json.Float s.Pool.s_collect);
              ("cache_hits", Json.Int s.Pool.s_cache_hits);
              ("from_workers", Json.Int s.Pool.s_from_workers);
              ("evictions", Json.Int s.Pool.s_evictions);
              ("metrics", s.Pool.s_metrics) ] )
      end
    in
    (match (obs, trace_file) with
     | Some ring, Some file ->
       let data =
         if Filename.check_suffix file ".jsonl" then
           Export.to_jsonl_string ring
         else Export.to_chrome_string ring
       in
       write_file file data;
       Printf.eprintf "trace: %d events recorded (%d kept) -> %s\n%!"
         (Ring.total ring)
         (min (Ring.total ring) (Ring.capacity ring))
         file
     | _ -> ());
    let reports = Array.to_list reports in
    if json then begin
      print_endline (Json.to_string (Verdict.reports_to_json reports));
      Printf.eprintf "%s\n%!"
        (Json.to_string (Json.Obj [ ("stats", stats_json) ]))
    end
    else begin
      List.iter (fun r -> Format.printf "%a@." Verdict.pp_report r) reports;
      match stats_json with
      | Json.Obj fields ->
        let str k =
          match List.assoc_opt k fields with
          | Some (Json.Float f) -> Printf.sprintf "%.2f" f
          | Some (Json.Int n) -> string_of_int n
          | _ -> "0"
        in
        Printf.printf
          "stats: %s bytecodes in %ss (%s bytecodes/sec), %s JNI crossings\n"
          (str "bytecodes") (str "analyze_seconds") (str "bytecodes_per_sec")
          (str "jni_crossings")
      | _ -> ()
    end;
    if List.exists (fun r -> Verdict.flagged r.Verdict.r_verdict) reports then 3
    else 0

(* ---- the service: serve and submit ----------------------------------- *)

let cmd_serve socket jobs cache_dir depth max_clients deadline engine quiet
    stream_buf =
  let cache = Option.map (fun dir -> Cache.create ~dir) cache_dir in
  let log =
    if quiet then None
    else Some (fun s -> Printf.eprintf "ndroid serve: %s\n%!" s)
  in
  match
    Server.config ~socket ~jobs ?cache ~depth ~max_clients ?deadline ~engine
      ~stream_buf ?log ()
  with
  | exception Invalid_argument e ->
    prerr_endline e;
    1
  | cfg ->
    let st = Server.serve cfg in
    Printf.eprintf
      "ndroid serve: %d requests, %d served (%d cached, %d coalesced), %d \
       analyses, %d shed, %d crashed, %d timeouts, %d respawns, %d \
       evictions, %d clients, %d subscribers, %d trace events (%d \
       throttled, %d lost)\n%!"
      st.Server.sv_requests st.Server.sv_served st.Server.sv_cache_hits
      st.Server.sv_coalesced st.Server.sv_analyses st.Server.sv_shed
      st.Server.sv_crashed st.Server.sv_timeouts st.Server.sv_respawns
      st.Server.sv_evictions st.Server.sv_clients st.Server.sv_subscribers
      st.Server.sv_trace_events st.Server.sv_trace_dropped
      st.Server.sv_trace_lost;
    0

(* One human-readable line per streamed event: the Fig. 6-9 rendering when
   the kind has one, the raw name otherwise. *)
let event_line ~app (ev : Stream.event) =
  let text =
    match Stream.render ev with Some s -> s | None -> ev.Stream.ev_name
  in
  Printf.sprintf "%-18s %8d  %-14s %s" app ev.Stream.ev_seq
    (Event.kind_name ev.Stream.ev_kind) text

(* Submit pipelined: send every request up front, then collect terminal
   responses until each request has one.  Output is exactly what
   `ndroid analyze` prints for the same corpus — the service is the same
   code path, so the bytes match. *)
let cmd_submit socket names market mode json deadline trace_follow =
  match Cli_args.tasks_of_request names market mode with
  | Error e ->
    prerr_endline e;
    1
  | Ok tasks -> (
    match Proto.Client.connect ~retry_for:5.0 socket with
    | Error e ->
      prerr_endline e;
      1
    | Ok client ->
      let task_arr = Array.of_list tasks in
      let total = Array.length task_arr in
      let reports : Verdict.report option array = Array.make total None in
      Array.iter
        (fun t ->
          Proto.Client.send client
            (Proto.Submit
               { sb_req = t.Task.t_id; sb_subject = t.Task.t_subject;
                 sb_mode = t.Task.t_mode; sb_deadline = deadline;
                 sb_fault = t.Task.t_fault; sb_trace = trace_follow }))
        task_arr;
      let remaining = ref total in
      let failed = ref None in
      while !remaining > 0 && !failed = None do
        match Proto.Client.recv client with
        | Stdlib.Error e -> failed := Some e
        | Ok (Proto.Verdict v) when v.vd_req >= 0 && v.vd_req < total ->
          reports.(v.vd_req) <- Some v.vd_report;
          decr remaining
        | Ok (Proto.Shed s) when s.sh_req >= 0 && s.sh_req < total ->
          (* a shed request still gets a report row, marked as such, so
             the output array keeps one entry per app *)
          let t = task_arr.(s.sh_req) in
          Printf.eprintf "request %d shed: %s\n%!" s.sh_req s.sh_reason;
          reports.(s.sh_req) <-
            Some
              { Verdict.r_app = Task.subject_name t.Task.t_subject;
                r_analysis = Task.mode_name t.Task.t_mode;
                r_verdict = Verdict.Crashed ("shed: " ^ s.sh_reason);
                r_meta = [] };
          decr remaining
        | Ok (Proto.Progress { pg_req; pg_state; pg_depth }) ->
          (* the daemon narrates admission (queued at depth N, coalesced
             onto an in-flight digest); stdout stays exactly the report
             array, so the narration goes to stderr *)
          if not json then
            Printf.eprintf "request %d %s (queue depth %d)\n%!" pg_req
              pg_state pg_depth
        | Ok (Proto.Trace tc) ->
          if trace_follow then
            List.iter
              (fun ev ->
                Printf.eprintf "%s\n" (event_line ~app:tc.Proto.tc_app ev))
              tc.Proto.tc_events;
          if trace_follow && tc.Proto.tc_events <> [] then flush stderr
        | Ok (Proto.Error e) -> failed := Some e
        | Ok _ -> ()
      done;
      Proto.Client.close client;
      (match !failed with
       | Some e ->
         prerr_endline e;
         1
       | None ->
         let reports =
           Array.to_list reports
           |> List.filter_map (fun r -> r)
         in
         if json then
           print_endline (Json.to_string (Verdict.reports_to_json reports))
         else
           List.iter (fun r -> Format.printf "%a@." Verdict.pp_report r)
             reports;
         if List.exists (fun r -> Verdict.flagged r.Verdict.r_verdict) reports
         then 3
         else 0))

(* ---- trace inspection ------------------------------------------------ *)

(* One row per event, whichever exporter wrote the file.  Chrome events
   carry ph/ts/tid/cat, JSONL events carry seq/kind; both carry a name. *)
let trace_row j =
  let s k = Option.bind (Json.member k j) Json.str in
  let i k = Option.bind (Json.member k j) Json.int in
  match (i "ts", s "ph") with
  | Some ts, Some ph ->
    Printf.sprintf "%8d  %s  tid %d  %-10s %s" ts ph
      (Option.value ~default:0 (i "tid"))
      (Option.value ~default:"-" (s "cat"))
      (Option.value ~default:"" (s "name"))
  | _ ->
    Printf.sprintf "%8d  %-14s %s"
      (Option.value ~default:0 (i "seq"))
      (Option.value ~default:"-" (s "kind"))
      (Option.value ~default:"" (s "name"))

let trace_category j =
  match Option.bind (Json.member "cat" j) Json.str with
  | Some c -> Some c
  | None -> Option.bind (Json.member "kind" j) Json.str

(* Live subscriber: attach to a running daemon, send one Subscribe frame,
   and print every surviving event until the daemon exits (or Ctrl-C).
   --jsonl lines go through the one shared codec, so they are byte-identical
   to what `ndroid analyze --trace out.jsonl` writes for the same events. *)
let cmd_trace_follow socket cat app throttle_ms jsonl =
  match Proto.Client.connect ~retry_for:5.0 socket with
  | Error e ->
    prerr_endline e;
    1
  | Ok client ->
    Proto.Client.send client
      (Proto.Subscribe
         { su_cats = (match cat with Some c -> [ c ] | None -> []);
           su_app = app;
           (* the ring's seq clock ticks once per event; the wire window is
              in seq units, nominally one event per microsecond *)
           su_window = throttle_ms * 1000 });
    let events = ref 0 and dropped = ref 0 and lost = ref 0 in
    let failed = ref None in
    let eof = ref false in
    while !failed = None && not !eof do
      match Proto.Client.recv client with
      | Stdlib.Error e ->
        (* daemon shutdown is the normal way a follow ends *)
        if e = "server closed the connection" then eof := true
        else failed := Some e
      | Ok (Proto.Trace tc) ->
        List.iter
          (fun ev ->
            incr events;
            if jsonl then
              print_endline (Json.to_string (Stream.event_json ev))
            else print_endline (event_line ~app:tc.Proto.tc_app ev))
          tc.Proto.tc_events;
        if tc.Proto.tc_events <> [] then flush stdout;
        (* broadcast frames carry cumulative counters; keep the latest *)
        dropped := tc.Proto.tc_dropped;
        lost := tc.Proto.tc_lost
      | Ok (Proto.Error e) -> failed := Some e
      | Ok _ -> ()
    done;
    Proto.Client.close client;
    (match !failed with
     | Some e ->
       prerr_endline e;
       1
     | None ->
       Printf.eprintf "%d events, %d throttled, %d lost\n%!" !events !dropped
         !lost;
       0)

let cmd_trace file cat limit =
  match read_file file with
  | exception Sys_error e ->
    prerr_endline e;
    1
  | data -> (
    let parsed =
      if Filename.check_suffix file ".jsonl" then
        String.split_on_char '\n' data
        |> List.filter (fun l -> String.trim l <> "")
        |> List.fold_left
             (fun acc line ->
               match (acc, Json.of_string line) with
               | Error _, _ -> acc
               | Ok evs, Ok j -> Ok (j :: evs)
               | Ok _, Error e -> Error e)
             (Ok [])
        |> Result.map List.rev
      else
        match Json.of_string data with
        | Error e -> Error e
        | Ok doc -> (
          match Option.bind (Json.member "traceEvents" doc) Json.list with
          | Some evs -> Ok evs
          | None -> Error "no traceEvents array (not a Chrome trace?)")
    in
    match parsed with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      1
    | Ok events ->
      let wanted =
        match cat with
        | None -> events
        | Some c -> List.filter (fun j -> trace_category j = Some c) events
      in
      let total = List.length wanted in
      let shown = match limit with Some n -> min n total | None -> total in
      List.iteri
        (fun i j -> if i < shown then print_endline (trace_row j))
        wanted;
      if shown < total then
        Printf.printf "... (%d of %d events; raise --limit)\n" shown total;
      Printf.eprintf "%d events%s in %s\n%!" total
        (match cat with Some c -> " in category " ^ c | None -> "")
        file;
      0)

let cmd_monkey seeds events =
  let found =
    M.discovery_rate ~seeds ~events ~mode:H.Ndroid_full M.gated_app
  in
  Printf.printf "random input:   %d/%d seeds triggered the gated leak (%d events each)\n"
    found seeds events;
  let r = M.drive_script ~script:M.gated_script ~mode:H.Ndroid_full M.gated_app in
  Printf.printf "directed input: %s -> leak %b\n"
    (String.concat " -> " M.gated_script)
    r.M.leaked;
  0

(* ---- cmdliner wiring ---- *)

open Cmdliner

let mode_arg =
  Arg.(value & opt string "ndroid"
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Analysis configuration: vanilla, taintdroid, droidscope or ndroid.")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the bundled scenario and case-study apps.")
    Term.(const cmd_list $ const ())

let run_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP")
  in
  let log_arg =
    Arg.(value & flag & info [ "log" ] ~doc:"Print NDroid's flow log.")
  in
  let report_arg =
    Arg.(value & flag
         & info [ "report" ] ~doc:"Print a full triage report (ndroid mode).")
  in
  let block_arg =
    Arg.(value & flag
         & info [ "block" ]
             ~doc:"Enforce: suppress or scrub tainted data at sinks.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one app under an analysis configuration.")
    Term.(const cmd_run $ app_arg $ mode_arg $ log_arg $ report_arg $ block_arg)

let matrix_cmd =
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Print the Table I detection matrix over every bundled app.")
    Term.(const cmd_matrix $ const ())

let study_cmd =
  let total_arg =
    Arg.(value & opt (some int) None
         & info [ "total" ] ~docv:"N"
             ~doc:"Corpus size (default: the paper's 227,911).")
  in
  Cmd.v (Cmd.info "study" ~doc:"Run the Sec. III market study.")
    Term.(const cmd_study $ total_arg)

let monkey_cmd =
  let seeds = Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N") in
  let events = Arg.(value & opt int 60 & info [ "events" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "monkey"
       ~doc:"Drive the gated demo app with random vs. directed input (Sec. VI).")
    Term.(const cmd_monkey $ seeds $ events)

let disasm_cmd =
  let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP") in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble an app's native libraries.")
    Term.(const cmd_disasm $ app_arg)

let pack_cmd =
  let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP") in
  let dir_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Write an app's classes.dex and lib*.so artifacts to a directory.")
    Term.(const cmd_pack $ app_arg $ dir_arg)

let classify_cmd =
  let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Classify a packed app directory by parsing its artifacts.")
    Term.(const cmd_classify $ dir_arg)

let scan_cmd =
  let total = Arg.(value & opt int 2000 & info [ "total" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "scan"
       ~doc:"Materialize a market slice into binary APK artifacts and \
             classify by parsing them.")
    Term.(const cmd_scan $ total)

let analyze_cmd =
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record an execution trace of the sweep: Chrome \
                   trace_event JSON (open in chrome://tracing or Perfetto), \
                   or raw line-delimited events if $(docv) ends in .jsonl.  \
                   Forces in-process execution.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze apps through the unified pipeline: static supergraph, \
             dynamic NDroid run, or both, optionally sharded over worker \
             processes with per-app timeouts and crash isolation.  Exits 3 \
             if any app is flagged.")
    Term.(const cmd_analyze $ Cli_args.apps_pos $ Cli_args.mode_flags
          $ Cli_args.json_flag
          $ Cli_args.jobs_arg ~default:1
              ~doc:"Shard the corpus across $(docv) analysis workers \
                    (processes or domains; see $(b,--engine))."
          $ Cli_args.timeout_arg $ Cli_args.cache_arg $ Cli_args.market_arg
          $ Cli_args.engine_arg $ trace_arg)

let serve_cmd =
  let depth_arg =
    Arg.(value & opt int 256
         & info [ "depth" ] ~docv:"N"
             ~doc:"Admission bound: at most $(docv) requests queued (not \
                   yet dispatched); beyond it the daemon sheds instead of \
                   stalling.")
  in
  let max_clients_arg =
    Arg.(value & opt int 16
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent client connections (one fairness shard each).")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress lifecycle lines on stderr.")
  in
  let stream_buf_arg =
    Arg.(value & opt int 262144
         & info [ "stream-buf" ] ~docv:"BYTES"
             ~doc:"Outbound buffer bound per client: past it, trace frames \
                   for a slow subscriber are shed (and counted) instead of \
                   queued, so streaming never blocks an analysis or a \
                   verdict.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis daemon on a Unix socket: persistent workers, \
             a warm digest cache, per-client round-robin fairness, and \
             explicit shedding under overload.  Stop with SIGTERM or \
             Ctrl-C.")
    Term.(const cmd_serve $ Cli_args.socket_pos
          $ Cli_args.jobs_arg ~default:2
              ~doc:"Keep $(docv) persistent analysis workers (processes or \
                    domains; see $(b,--engine))."
          $ Cli_args.cache_arg $ depth_arg $ max_clients_arg
          $ Cli_args.deadline_arg
              ~doc:"Default per-request wall-clock budget; an overrunning \
                    request records a timeout verdict.  Forces the forked \
                    engine."
          $ Cli_args.engine_arg $ quiet_arg $ stream_buf_arg)

let submit_cmd =
  let trace_follow_arg =
    Arg.(value & flag
         & info [ "trace-follow" ]
             ~doc:"Stream the submissions' live trace events to stderr \
                   while they run (stdout stays exactly the report \
                   output).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit apps to a running $(b,ndroid serve) daemon and print \
             the verdicts exactly as $(b,ndroid analyze) would.  Exits 3 \
             if any app is flagged.")
    Term.(const cmd_submit $ Cli_args.socket_pos $ Cli_args.apps_after_socket
          $ Cli_args.market_arg $ Cli_args.mode_flags $ Cli_args.json_flag
          $ Cli_args.deadline_arg
              ~doc:"Per-request wall-clock budget (overrides the daemon's \
                    default)."
          $ trace_follow_arg)

let trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let cat_arg =
    Arg.(value & opt (some string) None
         & info [ "cat" ] ~docv:"CAT"
             ~doc:"Only events in this category (e.g. dalvik, jni, taint, \
                   sink, gc, log).")
  in
  let limit_arg =
    Arg.(value & opt (some int) (Some 40)
         & info [ "limit" ] ~docv:"N"
             ~doc:"Print at most $(docv) events (default 40); --limit 0 \
                   with --cat still reports the count.  File mode only.")
  in
  let follow_arg =
    Arg.(value & flag
         & info [ "follow" ]
             ~doc:"Treat $(i,FILE) as the Unix socket of a running \
                   $(b,ndroid serve) daemon and stream live trace events \
                   from every analysis it runs, until the daemon exits (or \
                   Ctrl-C).")
  in
  let app_arg =
    Arg.(value & opt (some string) None
         & info [ "app" ] ~docv:"RE"
             ~doc:"Only apps whose name matches this (anchored) regular \
                   expression.  $(b,--follow) only.")
  in
  let throttle_arg =
    Arg.(value & opt int 0
         & info [ "throttle-ms" ] ~docv:"N"
             ~doc:"Per-(method, kind) throttle window on the trace clock \
                   (one event = one microsecond): at most one event per \
                   method and kind per window; source/sink events always \
                   pass; suppressed events are counted, never silently \
                   gone.  0 streams everything.  $(b,--follow) only.")
  in
  let jsonl_arg =
    Arg.(value & flag
         & info [ "jsonl" ]
             ~doc:"Print one canonical JSON object per event — \
                   byte-identical to the lines $(b,ndroid analyze --trace \
                   out.jsonl) writes for the same events.  $(b,--follow) \
                   only.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Inspect a trace file written by $(b,ndroid analyze --trace), \
             or, with $(b,--follow), subscribe to a running $(b,ndroid \
             serve) daemon and stream live events as they happen.")
    Term.(const (fun target follow cat app throttle jsonl limit ->
            if follow then cmd_trace_follow target cat app throttle jsonl
            else cmd_trace target cat limit)
          $ file_arg $ follow_arg $ cat_arg $ app_arg $ throttle_arg
          $ jsonl_arg $ limit_arg)

let dump_cmd =
  let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP") in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print an app's classes and bytecode (dexdump-style).")
    Term.(const cmd_dump $ app_arg)

let () =
  let info =
    Cmd.info "ndroid" ~version:"1.0.0"
      ~doc:"NDroid: taint tracking through JNI, simulated in OCaml"
  in
  exit (Cmd.eval' (Cmd.group info
          [ list_cmd; run_cmd; matrix_cmd; study_cmd; monkey_cmd; disasm_cmd;
            dump_cmd; scan_cmd; pack_cmd; classify_cmd; analyze_cmd;
            serve_cmd; submit_cmd; trace_cmd ]))
