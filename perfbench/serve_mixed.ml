(* serve_mixed: the analysis daemon under a mixed closed-loop load.

   A daemon ([Server.serve], [Engine.Domains], one worker per core but
   one, so the select loop and this load generator keep a core) runs as
   its own process.  This process drives it through [Proto] with two
   closed-loop connections: each sends its next request only once the
   previous one is answered.  The seeded stream is in Both mode; half
   the requests go to a hot set (a few hundred market apps plus every
   bundled registry app, which carry real JNI crossings), the rest to
   market apps never asked for before.  The service memo is used
   both ways: hot repeats are answered at admission, misses are analyzed
   and stored, and identical hot requests in flight at once coalesce. *)

module Task = Ndroid_pipeline.Task
module Server = Ndroid_pipeline.Server
module Proto = Ndroid_pipeline.Proto
module Wire = Ndroid_pipeline.Wire
module Engine = Ndroid_pipeline.Engine
module Market = Ndroid_corpus.Market
module Registry = Ndroid_apps.Registry
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json

let market_total = 1_000_000

(* The hot set's size and share.  300 market apps plus the 21 bundled
   ones fit the service memo many times over, so every hot request after
   an app's first is a hit; the half/half split gives the memo's read
   and write paths equal weight in the request mix. *)
let hot_market = 300
let hot_permille = 500
let stream_length = 100_000

(* coprime with [market_total]: [p -> p * stride + offset] permutes ids,
   and the generator's id bands are mixed across the stream *)
let stride = 618_033

(* the daemon's peak RSS is read after this many verdicts: a fixed amount
   of work, so a faster daemon (which stores more answers in a timed run)
   is not charged for its speed *)
let rss_probe_at = 10_000

let bundled_file = "perfbench/oracle/bundled_both.txt"

let market_subject ~seed p =
  let offset = (seed * 7919) mod market_total in
  Task.Market
    { m_total = market_total; m_seed = seed; m_permille = None;
      m_id = ((p * stride) + offset) mod market_total }

let build_stream seed =
  let st = Random.State.make [| 0x5e4e; seed |] in
  let bundled = Array.of_list (List.map (fun n -> Task.Bundled n) Registry.names) in
  let hot =
    Array.append bundled (Array.init hot_market (fun p -> market_subject ~seed p))
  in
  let next_cold = ref hot_market in
  Array.init stream_length (fun _ ->
      if Random.State.int st 1000 < hot_permille then
        hot.(Random.State.int st (Array.length hot))
      else begin
        let p = !next_cold in
        incr next_cold;
        market_subject ~seed p
      end)

(* ---- the daemon: this executable again, in its own process ---- *)

(* [perfbench --daemon SOCKET --jobs N]: serve until SIGTERM, then print
   the [Server.stats] counters the benchmark reports as one line *)
let daemon_main ~socket ~jobs =
  let s =
    Server.serve
      (Server.config ~socket ~jobs ~depth:4096 ~max_clients:8 ~engine:Engine.Domains ())
  in
  Printf.printf "%d %d %d %d %d\n%!" s.Server.sv_served s.Server.sv_cache_hits
    s.Server.sv_coalesced s.Server.sv_analyses s.Server.sv_shed

type daemon = { d_pid : int; d_report : Unix.file_descr; d_socket : string }

(* a fresh process image, not a fork, so the daemon's heap and resident
   set hold nothing of the load generator's *)
let start_daemon ~socket ~jobs =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket; "--jobs"; string_of_int jobs |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  { d_pid = pid; d_report = rd; d_socket = socket }

type daemon_stats = {
  served : int;
  hits : int;
  coalesced : int;
  analyses : int;
  shed : int;
}

(* SIGTERM, then the child's one-line report of its [Server.stats]; the
   child is always reaped *)
let stop_daemon d =
  (try Unix.kill d.d_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr d.d_report in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] d.d_pid);
  (try Unix.unlink d.d_socket with Unix.Unix_error _ -> ());
  match
    Scanf.sscanf line "%d %d %d %d %d" (fun served hits coalesced analyses shed ->
        { served; hits; coalesced; analyses; shed })
  with
  | s -> Some s
  | exception _ ->
    Bench.check false ("daemon did not report its stats: " ^ line);
    None

(* connect as soon as the daemon listens: a tight retry, so set-up time
   is not rounded to a sleep quantum *)
let connect socket =
  let deadline = Bench.now () +. 20.0 in
  let rec go () =
    match Proto.Client.connect socket with
    | Ok c ->
      Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 60.0;
      c
    | Error e when Bench.now () > deadline -> failwith ("serve_mixed: " ^ e)
    | Error _ ->
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

type setup = { stream : Task.subject array; daemon : daemon; conns : Proto.Client.t array }

let set_up ~seed ~socket ~jobs () =
  let stream = build_stream seed in
  let daemon = start_daemon ~socket ~jobs in
  let conns = Array.init 2 (fun _ -> connect socket) in
  { stream; daemon; conns }

let tear_down s =
  Array.iter Proto.Client.close s.conns;
  stop_daemon s.daemon

(* ---- the closed loop ---- *)

type answer = {
  a_index : int;  (* position in the stream *)
  a_latency : float;  (* send to decoded Verdict, seconds *)
  a_cached : bool;
  a_seconds : float;  (* the daemon's analysis seconds *)
  a_report : Verdict.report;
  a_encode : float;
  a_decode : float;
}

type slot = {
  conn : Proto.Client.t;
  mutable pending : (int * float * float) option;  (* index, sent at, encode s *)
}

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

(* Drive both connections until [seconds] have passed, then collect what
   is outstanding.  With [traced], every request leaves spans: encode,
   the daemon's analysis, the rest of the wait, and decode. *)
let drive s ~seconds ~traced =
  let slots = Array.map (fun conn -> { conn; pending = None }) s.conns in
  let next = ref 0 and answers = ref [] in
  let rss = Bench.rss_probe ~pid:(string_of_int s.daemon.d_pid) ~after:rss_probe_at () in
  let t_start = Bench.now () in
  let t_end = t_start +. seconds in
  let send slot =
    let i = !next in
    incr next;
    let subject = s.stream.(i mod stream_length) in
    let t0 = Bench.now () in
    let frame =
      Proto.to_frame
        (Proto.Submit
           { sb_req = i; sb_subject = subject; sb_mode = Task.Both;
             sb_deadline = None; sb_fault = None; sb_trace = false })
    in
    let t1 = Bench.now () in
    write_all (Proto.Client.fd slot.conn) frame 0 (Bytes.length frame);
    slot.pending <- Some (i, t0, t1 -. t0)
  in
  let receive slot =
    match slot.pending with
    | None -> ()
    | Some (i, t0, enc) -> (
      match Wire.read_frame (Proto.Client.fd slot.conn) with
      | None ->
        Bench.op false (fun () -> Printf.sprintf "request %d: connection closed" i);
        slot.pending <- None
      | Some frame -> (
        let t_read = Bench.now () in
        let msg = Proto.of_frame frame in
        let t_done = Bench.now () in
        match msg with
        | Ok (Proto.Verdict v) ->
          slot.pending <- None;
          let a =
            { a_index = i; a_latency = t_done -. t0; a_cached = v.vd_cached;
              a_seconds = v.vd_seconds; a_report = v.vd_report;
              a_encode = enc; a_decode = t_done -. t_read }
          in
          answers := a :: !answers;
          Bench.rss_tick rss;
          if traced then begin
            let analysis = Float.min v.vd_seconds (t_read -. t0 -. enc) in
            Bench.add_span "proto" ~op:i ~start:t0 ~stop:(t0 +. enc);
            Bench.add_span "server.analysis" ~op:i ~start:(t0 +. enc)
              ~stop:(t0 +. enc +. analysis);
            Bench.add_span "server.wait" ~op:i ~start:(t0 +. enc +. analysis)
              ~stop:t_read;
            Bench.add_span "proto" ~op:i ~start:t_read ~stop:t_done
          end
        | Ok (Proto.Progress _ | Proto.Trace _) -> ()
        | Ok (Proto.Shed sh) ->
          slot.pending <- None;
          Bench.op false (fun () -> Printf.sprintf "request %d shed: %s" i sh.sh_reason)
        | Ok (Proto.Error e) ->
          slot.pending <- None;
          Bench.op false (fun () -> Printf.sprintf "request %d: error frame %s" i e)
        | Ok (Proto.Submit _ | Proto.Subscribe _) ->
          slot.pending <- None;
          Bench.op false (fun () -> Printf.sprintf "request %d: unexpected frame" i)
        | Error e ->
          slot.pending <- None;
          Bench.op false (fun () -> Printf.sprintf "request %d: bad frame %s" i e)))
  in
  let rec loop () =
    if Bench.now () < t_end then
      Array.iter (fun sl -> if sl.pending = None then send sl) slots;
    let busy = Array.to_list slots |> List.filter (fun sl -> sl.pending <> None) in
    if busy <> [] then begin
      let fds = List.map (fun sl -> Proto.Client.fd sl.conn) busy in
      let ready, _, _ = Unix.select fds [] [] 60.0 in
      if ready = [] then
        List.iter
          (fun sl ->
            sl.pending <- None;
            Bench.op false (fun () -> "no answer within 60s"))
          busy
      else
        List.iter
          (fun sl -> if List.mem (Proto.Client.fd sl.conn) ready then receive sl)
          busy;
      loop ()
    end
  in
  loop ();
  let wall = Bench.now () -. t_start in
  (* the daemon is still up: read its RSS now if the probe never fired *)
  Bench.rss_report rss;
  (List.rev !answers, wall)

(* ---- oracles ---- *)

let load_bundled () =
  let ic = open_in bundled_file in
  let rec read acc =
    match input_line ic with
    | line when String.length line = 0 || line.[0] = '#' -> read acc
    | line -> read (Scanf.sscanf line " %s %s" (fun n v -> (n, v = "flagged")) :: acc)
    | exception End_of_file -> acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read [])

let expected_flagged bundled = function
  | Task.Bundled name -> List.assoc_opt name bundled
  | Task.Market { m_total; m_seed; m_permille; m_id } ->
    Some
      (Market.app_is_leaky
         (Task.market_model ~total:m_total ~seed:m_seed ~permille:m_permille m_id))

(* every verdict against its oracle; every answer for one subject must be
   byte-identical, hit or miss.  The bundled apps' JNI crossings, counted
   once per app, must be positive: the dynamic half of Both really ran
   across the JNI bridge, which the static half's flags alone would not
   show. *)
let check_answers stream answers =
  let bundled = load_bundled () in
  let first = Hashtbl.create 1024 in
  let crossings = ref 0 in
  List.iter
    (fun a ->
      let subject = stream.(a.a_index mod stream_length) in
      let name = Task.subject_name subject in
      let r = a.a_report in
      let json = Json.to_string (Verdict.report_to_json r) in
      let consistent =
        match Hashtbl.find_opt first name with
        | Some j -> String.equal j json
        | None ->
          Hashtbl.replace first name json;
          (match subject with
           | Task.Bundled _ -> crossings := !crossings + Bench.meta_int "dynamic_jni_crossings" r
           | Task.Market _ -> ());
          true
      in
      let expected = expected_flagged bundled subject in
      Bench.op
        ((not (Bench.is_failure r)) && consistent
        && expected = Some (Verdict.flagged r.Verdict.r_verdict))
        (fun () ->
          Printf.sprintf "%s: verdict %s, expected %s%s" name
            (Json.to_string (Verdict.to_json r.Verdict.r_verdict))
            (match expected with
             | Some true -> "flagged"
             | Some false -> "clean"
             | None -> "no oracle entry")
            (if consistent then "" else " (differs from an earlier answer)")))
    answers;
  Bench.check (!crossings > 0) "no bundled verdict crossed JNI";
  Bench.set "dynamic.jni_crossings" (float_of_int !crossings)

let layers answers (st : daemon_stats) =
  let ms f l = List.map (fun a -> f a *. 1e3) l in
  let us f l = List.map (fun a -> f a *. 1e6) l in
  let hits = List.filter (fun a -> a.a_cached) answers in
  let misses = List.filter (fun a -> not a.a_cached) answers in
  ignore (Bench.timing "proto.encode_us" (us (fun a -> a.a_encode) answers));
  ignore (Bench.timing "proto.decode_us" (us (fun a -> a.a_decode) answers));
  ignore (Bench.timing "server.hit_p50_ms" (ms (fun a -> a.a_latency) hits));
  let miss = Bench.timing "server.miss_p50_ms" (ms (fun a -> a.a_latency) misses) in
  Bench.check (Stat.resolves miss.Stat.n 99.0) "too few misses to resolve p99";
  Bench.set "server.miss_p99_ms" (Stat.at miss 99.0);
  ignore (Bench.timing "server.analysis_ms" (ms (fun a -> a.a_seconds) misses));
  ignore
    (Bench.timing "server.wait_ms" (ms (fun a -> a.a_latency -. a.a_seconds) misses));
  Bench.set "service.hit_frac" (float_of_int st.hits /. float_of_int (max 1 st.served));
  Bench.set "server.coalesced" (float_of_int st.coalesced);
  Bench.set "server.analyses" (float_of_int st.analyses);
  Bench.set "server.shed" (float_of_int st.shed)

let end_to_end answers wall =
  Bench.log "%d verdicts in %.3fs (%d hits)" (List.length answers) wall
    (List.length (List.filter (fun a -> a.a_cached) answers));
  Bench.end_to_end ~concurrency:2
    (List.map
       (fun a -> { Bench.o_seconds = a.a_latency; o_items = 1 })
       answers)

let run_daemon ~seconds ~traced s =
  let gc0 = Gc.quick_stat () and mw0 = Gc.minor_words () in
  let answers, wall = drive s ~seconds ~traced in
  let gc1 = Gc.quick_stat () and mw1 = Gc.minor_words () in
  if traced then begin
    Bench.set "gc.minor_words_per_op"
      ((mw1 -. mw0) /. float_of_int (max 1 (List.length answers)));
    Bench.set "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
  end;
  let stats = tear_down s in
  check_answers s.stream answers;
  (answers, wall, stats)

(* A daemon's threads land on the machine's cores once for its whole
   life, and on a shared machine that placement sets its speed for the
   whole run; a measured run therefore spreads its time over this many
   daemons, each replaying the stream from the start *)
let daemons_per_run = 4

let run ~seed ~seconds ~trace =
  let socket =
    Filename.concat !Bench.scratch (Printf.sprintf "d%d.sock" (Unix.getpid ()))
  in
  let jobs = max 1 (Bench.jobs () - 1) in
  (* every daemon's set-up is timed, and so are three more before it,
     each torn down at once: the set-up samples are spread over the run *)
  let set_up () =
    for _ = 1 to 3 do
      ignore (tear_down (Bench.timed_setup (set_up ~seed ~socket ~jobs)))
    done;
    Bench.timed_setup (set_up ~seed ~socket ~jobs)
  in
  if not trace then begin
    let seconds = seconds /. float_of_int daemons_per_run in
    let rec go i answers wall =
      let a, w, _ = run_daemon ~seconds ~traced:false (set_up ()) in
      let answers = a @ answers and wall = wall +. w in
      if i + 1 < daemons_per_run then go (i + 1) answers wall
      else end_to_end answers wall
    in
    go 0 [] 0.0
  end
  else begin
    (* half untraced, then a fresh daemon on the same stream traced: the
       ratio of their request rates is the tracing overhead *)
    let a0, w0, _ = run_daemon ~seconds:(seconds /. 2.0) ~traced:false (set_up ()) in
    let s = set_up () in
    let a1, w1, stats = run_daemon ~seconds:(seconds /. 2.0) ~traced:true s in
    let rate a w = float_of_int (List.length a) /. w in
    Bench.set "trace.overhead_ratio" (rate a0 w0 /. rate a1 w1);
    (* two connections share the traced wall time *)
    Bench.attribute ~wall:(2.0 *. w1);
    Option.iter (layers a1) stats
  end
