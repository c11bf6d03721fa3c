module H = Ndroid_apps.Harness
module Registry = Ndroid_apps.Registry
module St = Ndroid_static
module Apk = Ndroid_corpus.Apk
module App_model = Ndroid_corpus.App_model
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json
module Vm = Ndroid_dalvik.Vm

(* Bump on any change to the report bytes an analysis produces or to the
   cache-entry format: it invalidates every cached result at once. *)
let version = "5"

(* The dynamic path's feature switches.  They are part of every cache
   key (see {!digest}): flipping one invalidates exactly the results it
   could change, without touching [version]. *)
let use_superblocks = false
let use_summaries = true

let feature_key =
  Printf.sprintf "superblocks=%b;summaries=%b;focus=slice" use_superblocks
    use_summaries

let enable_summary_cache cache =
  (* Native taint summaries persist as raw entries beside the verdict
     reports, keyed by library digest: a re-run over an unchanged corpus
     skips re-deriving them, and any change to a library's code bytes
     changes the digest and misses cleanly. *)
  Ndroid_summary.Summary.set_persistence
    ~load:(fun digest -> Cache.find_raw cache ~key:("summary-" ^ digest))
    ~save:(fun digest data ->
      Cache.store_raw cache ~key:("summary-" ^ digest) data)

let crashed_report ~app ~analysis why =
  { Verdict.r_app = app; r_analysis = analysis; r_verdict = Verdict.Crashed why;
    r_meta = [] }

let model_of_market ~total ~seed ~permille id =
  Task.market_model ~total ~seed ~permille id

let static_bundled_v = St.Drive.verdict_of_app
let static_bundled app = St.Report.to_report (static_bundled_v app)
let static_market_v model = St.Analyzer.analyze_apk (Apk.of_app_model model)
let static_market model = St.Report.to_report (static_market_v model)

let dynamic_bundled ?obs ?focus (app : H.app) =
  let outcome =
    H.run ?obs ~superblocks:use_superblocks ~summaries:use_summaries ?focus
      H.Ndroid_full app
  in
  (* deterministic execution counters: same app, same counts, whatever the
     --jobs value — safe to put in the canonical report *)
  let c = (Ndroid_runtime.Device.vm outcome.H.device).Vm.counters in
  let nd_stats =
    match outcome.H.analysis with
    | Some nd -> Some (Ndroid_core.Ndroid.stats nd)
    | None -> None
  in
  let sb_stat f = match nd_stats with Some s -> f s | None -> 0 in
  let sb_compiles = sb_stat (fun s -> s.Ndroid_core.Ndroid.sb_compiles) in
  let sb_hits = sb_stat (fun s -> s.Ndroid_core.Ndroid.sb_hits) in
  let sb_invalidations =
    sb_stat (fun s -> s.Ndroid_core.Ndroid.sb_invalidations)
  in
  let summaries_applied =
    sb_stat (fun s -> s.Ndroid_core.Ndroid.native_summaries_applied)
  in
  let summaries_rejected =
    sb_stat (fun s -> s.Ndroid_core.Ndroid.native_summaries_rejected)
  in
  (* the same counters feed the observability registry, so one sweep-wide
     merge covers both the legacy stats fields and the metrics JSON *)
  (match obs with
   | Some ring when Ndroid_obs.Ring.on ring ->
     let m = Ndroid_obs.Ring.metrics ring in
     let bump name v = Ndroid_obs.Metrics.add (Ndroid_obs.Metrics.counter m name) v in
     bump "bytecodes" c.Vm.bytecodes;
     bump "invokes" c.Vm.invokes;
     bump "jni_crossings" (c.Vm.native_calls + c.Vm.jni_env_calls);
     bump "sb_compiles" sb_compiles;
     bump "sb_hits" sb_hits;
     bump "sb_invalidations" sb_invalidations;
     bump "summaries_applied" summaries_applied;
     bump "summaries_rejected" summaries_rejected;
     bump "focused_methods" (sb_stat (fun s -> s.Ndroid_core.Ndroid.focused_methods));
     bump "skipped_bytecodes"
       (sb_stat (fun s -> s.Ndroid_core.Ndroid.skipped_bytecodes))
   | Some _ | None -> ());
  let counter_meta =
    [ ("bytecodes", Json.Int c.Vm.bytecodes);
      ("invokes", Json.Int c.Vm.invokes);
      ("jni_crossings", Json.Int (c.Vm.native_calls + c.Vm.jni_env_calls));
      ("sb_compiles", Json.Int sb_compiles);
      ("sb_hits", Json.Int sb_hits);
      ("sb_invalidations", Json.Int sb_invalidations);
      ("summaries_applied", Json.Int summaries_applied);
      ("summaries_rejected", Json.Int summaries_rejected);
      ("focused_methods",
       Json.Int (sb_stat (fun s -> s.Ndroid_core.Ndroid.focused_methods)));
      ("skipped_bytecodes",
       Json.Int (sb_stat (fun s -> s.Ndroid_core.Ndroid.skipped_bytecodes))) ]
  in
  match outcome.H.analysis with
  | Some nd ->
    let r = Ndroid_core.Report.to_report ~app_name:app.H.app_name nd in
    { r with Verdict.r_meta = r.Verdict.r_meta @ counter_meta }
  | None ->
    crashed_report ~app:app.H.app_name ~analysis:"dynamic"
      "NDroid failed to attach"

let merge_both (s : Verdict.report) (d : Verdict.report) =
  let verdict =
    match (s.Verdict.r_verdict, d.Verdict.r_verdict) with
    | Verdict.Crashed why, _ | _, Verdict.Crashed why -> Verdict.Crashed why
    | Verdict.Timeout, _ | _, Verdict.Timeout -> Verdict.Timeout
    | sv, dv ->
      Verdict.normalize
        (Verdict.Flagged (Verdict.flows sv @ Verdict.flows dv))
  in
  { Verdict.r_app = s.Verdict.r_app;
    r_analysis = "both";
    r_verdict = verdict;
    r_meta =
      List.map (fun (k, v) -> ("static_" ^ k, v)) s.Verdict.r_meta
      @ List.map (fun (k, v) -> ("dynamic_" ^ k, v)) d.Verdict.r_meta }

(* Hybrid dispatch: the static pass is the triage.  A clean static verdict
   is final — no device is booted, no instruction emulated.  A flagged one
   hands its slice's focus set to a gated dynamic run, and the two reports
   merge like [Both] does. *)
let hybrid ~static_v ~static_r ~run_dynamic =
  match static_r.Verdict.r_verdict with
  | Verdict.Flagged _ ->
    let d = run_dynamic ~focus:static_v.St.Analyzer.v_focus in
    { (merge_both static_r d) with Verdict.r_analysis = "hybrid" }
  | Verdict.Clean | Verdict.Crashed _ | Verdict.Timeout ->
    { static_r with Verdict.r_analysis = "hybrid" }

let run_exn ?obs (task : Task.t) =
  match (task.Task.t_subject, task.Task.t_mode) with
  | Task.Bundled name, mode -> (
    match Registry.find name with
    | None ->
      crashed_report ~app:name ~analysis:(Task.mode_name mode)
        (Printf.sprintf "unknown app %S" name)
    | Some app -> (
      match mode with
      | Task.Static -> static_bundled app
      | Task.Dynamic -> dynamic_bundled ?obs app
      | Task.Both -> merge_both (static_bundled app) (dynamic_bundled ?obs app)
      | Task.Hybrid ->
        let v = static_bundled_v app in
        hybrid ~static_v:v ~static_r:(St.Report.to_report v)
          ~run_dynamic:(fun ~focus -> dynamic_bundled ?obs ~focus app)))
  | Task.Market { m_total; m_seed; m_permille; m_id }, mode -> (
    let model = model_of_market ~total:m_total ~seed:m_seed ~permille:m_permille m_id in
    match mode with
    | Task.Static -> static_market model
    | Task.Dynamic -> Market_exec.run ?obs model
    | Task.Both ->
      merge_both (static_market model) (Market_exec.run ?obs model)
    | Task.Hybrid ->
      let v = static_market_v model in
      hybrid ~static_v:v ~static_r:(St.Report.to_report v)
        ~run_dynamic:(fun ~focus -> Market_exec.run ?obs ~focus model))

let run ?obs task =
  try run_exn ?obs task
  with exn ->
    crashed_report
      ~app:(Task.subject_name task.Task.t_subject)
      ~analysis:(Task.mode_name task.Task.t_mode)
      (Printf.sprintf "analyzer exception: %s" (Printexc.to_string exn))

(* ---- cache keys ---- *)

let abi_name = function
  | App_model.Armeabi -> "armeabi"
  | App_model.X86 -> "x86"
  | App_model.Mips -> "mips"

let add_dex buf (d : App_model.dex) =
  List.iter
    (fun r ->
      Buffer.add_string buf r;
      Buffer.add_char buf '\n')
    d.App_model.method_refs;
  List.iter
    (fun c ->
      Buffer.add_string buf c;
      Buffer.add_char buf '\n')
    d.App_model.native_decl_classes

let market_descriptor (model : App_model.t) =
  (* everything {!Apk.of_app_model} materializes from, without paying for
     materialization on every cache probe *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf model.App_model.package;
  Buffer.add_char buf '|';
  Buffer.add_string buf (App_model.category_name model.App_model.category);
  Buffer.add_string buf "|main:";
  (match model.App_model.main_dex with
   | Some d -> add_dex buf d
   | None -> Buffer.add_string buf "none");
  Buffer.add_string buf "|embedded:";
  List.iter (add_dex buf) model.App_model.embedded_dexes;
  Buffer.add_string buf "|libs:";
  List.iter
    (fun (l : App_model.native_lib) ->
      Buffer.add_string buf l.App_model.lib_name;
      Buffer.add_char buf '@';
      Buffer.add_string buf (abi_name l.App_model.abi);
      Buffer.add_char buf ';')
    model.App_model.libs;
  Buffer.contents buf

let bundled_descriptor name =
  match Registry.find name with
  | None -> "unknown:" ^ name
  | Some app ->
    (* the actual artifact bytes the analyzers see, plus the entry point:
       bundled variants can share one dex+libs and differ only in where
       execution starts (the poly-* apps), and the dynamic analyzers see
       that difference even though the artifacts don't *)
    let input = St.Drive.input_of_app app in
    let entry_class, entry_method = app.Ndroid_apps.Harness.entry in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf entry_class;
    Buffer.add_string buf "->";
    Buffer.add_string buf entry_method;
    Buffer.add_char buf '|';
    Buffer.add_string buf
      (Ndroid_dalvik.Dexfile.to_string input.St.Analyzer.in_classes);
    List.iter
      (fun (lib_name, prog) ->
        Buffer.add_string buf lib_name;
        Buffer.add_string buf (Ndroid_arm.Sofile.to_string prog))
      input.St.Analyzer.in_libs;
    Buffer.contents buf

let digest (task : Task.t) =
  let descriptor =
    match task.Task.t_subject with
    | Task.Bundled name -> bundled_descriptor name
    | Task.Market { m_total; m_seed; m_permille; m_id } ->
      market_descriptor
        (model_of_market ~total:m_total ~seed:m_seed ~permille:m_permille m_id)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ "ndroid-analysis"; version; feature_key;
            Task.mode_name task.Task.t_mode; descriptor ]))

(* ---- the request-oriented facade ---- *)

(* One service value owns the whole answer-one-request path: digest the
   task (memoized — descriptor construction is the expensive part of a
   warm probe), probe the in-memory warm layer then the on-disk cache,
   run the analyzer on a miss, and store the answer back.  The daemon,
   the batch pool's cache pass and [Pool.run_inline] are all built on
   it, so "what counts as a hit" and "what may be cached" have exactly
   one definition. *)

(* A bounded memo table with second-chance (clock) eviction: entries keep
   a reference bit set on every hit; when the table is full the oldest
   key is inspected — recently-hit entries get their bit cleared and one
   more lap around the ring, cold ones are evicted.  A long-lived daemon
   therefore holds its hottest [capacity] answers instead of growing
   without bound. *)
type 'v memo = {
  mm_capacity : int;
  mm_tbl : (string, 'v memo_slot) Hashtbl.t;
  mm_ring : string Queue.t;  (* insertion-ordered clock hand *)
  mutable mm_evictions : int;
}

and 'v memo_slot = { ms_value : 'v; mutable ms_ref : bool }

let memo_create capacity =
  { mm_capacity = max 1 capacity;
    mm_tbl = Hashtbl.create (min capacity 4096);
    mm_ring = Queue.create ();
    mm_evictions = 0 }

let memo_find m key =
  match Hashtbl.find_opt m.mm_tbl key with
  | Some s ->
    s.ms_ref <- true;
    Some s.ms_value
  | None -> None

let memo_add m key value =
  if Hashtbl.mem m.mm_tbl key then
    (* a replace keeps its ring position; no second ring entry *)
    Hashtbl.replace m.mm_tbl key { ms_value = value; ms_ref = true }
  else begin
    let evicted = ref false in
    while Hashtbl.length m.mm_tbl >= m.mm_capacity && not !evicted do
      match Queue.take_opt m.mm_ring with
      | None -> evicted := true  (* can't happen: ring covers the table *)
      | Some victim -> (
        match Hashtbl.find_opt m.mm_tbl victim with
        | None -> ()  (* stale ring entry *)
        | Some s when s.ms_ref ->
          s.ms_ref <- false;
          Queue.add victim m.mm_ring
        | Some _ ->
          Hashtbl.remove m.mm_tbl victim;
          m.mm_evictions <- m.mm_evictions + 1;
          evicted := true)
    done;
    Hashtbl.replace m.mm_tbl key { ms_value = value; ms_ref = false };
    Queue.add key m.mm_ring
  end

(* Every service below is shared by all domains of the in-process engine:
   one mutex guards the two memo tables and the counters.  Analyzer runs,
   digest computation and disk I/O happen outside the lock — the critical
   sections are table probes only, so domains contend for nanoseconds,
   not for analysis time. *)

type service = {
  sv_cache : Cache.t option;
  sv_lock : Mutex.t;
  sv_digest_memo : string memo;  (* subject+mode -> digest *)
  sv_memo : Verdict.report memo;  (* digest -> warm report *)
  mutable sv_requests : int;
}

let default_capacity = 65536

let service ?cache ?(capacity = default_capacity) () =
  (match cache with Some c -> enable_summary_cache c | None -> ());
  { sv_cache = cache;
    sv_lock = Mutex.create ();
    sv_digest_memo = memo_create capacity;
    sv_memo = memo_create capacity;
    sv_requests = 0 }

let locked sv f =
  Mutex.lock sv.sv_lock;
  match f () with
  | v ->
    Mutex.unlock sv.sv_lock;
    v
  | exception exn ->
    Mutex.unlock sv.sv_lock;
    raise exn

let service_requests sv = locked sv (fun () -> sv.sv_requests)

let service_evictions sv =
  locked sv (fun () ->
      sv.sv_digest_memo.mm_evictions + sv.sv_memo.mm_evictions)

let service_warm_entries sv =
  locked sv (fun () -> Hashtbl.length sv.sv_memo.mm_tbl)

(* the answer's identity: subject and mode, never the request-local id or
   an injected fault *)
let memo_key (task : Task.t) =
  Task.mode_name task.Task.t_mode
  ^ "|"
  ^ Json.to_string (Task.subject_to_json task.Task.t_subject)

let service_digest sv task =
  let k = memo_key task in
  match locked sv (fun () -> memo_find sv.sv_digest_memo k) with
  | Some d -> d
  | None ->
    (* compute outside the lock: descriptor construction is the expensive
       part, and two domains racing to the same digest write equal values *)
    let d = digest task in
    locked sv (fun () -> memo_add sv.sv_digest_memo k d);
    d

let service_find sv (task : Task.t) =
  (* a fault marker means "really run this" (the worker acts on it);
     serving it from cache would silently skip the injection *)
  if task.Task.t_fault <> None then None
  else begin
    let d = service_digest sv task in
    match locked sv (fun () -> memo_find sv.sv_memo d) with
    | Some report -> Some (report, d)
    | None -> (
      (* disk probe outside the lock; a racing domain reads the same file *)
      match Option.bind sv.sv_cache (fun c -> Cache.find c ~key:d) with
      | Some report ->
        locked sv (fun () -> memo_add sv.sv_memo d report);
        Some (report, d)
      | None -> None)
  end

let service_store sv ~digest report =
  match report.Verdict.r_verdict with
  (* crash/timeout verdicts are circumstances, not app facts *)
  | Verdict.Crashed _ | Verdict.Timeout -> ()
  | _ ->
    locked sv (fun () -> memo_add sv.sv_memo digest report);
    (match sv.sv_cache with
     | Some c -> Cache.store c ~key:digest report
     | None -> ())

let service_run sv ?obs (task : Task.t) =
  locked sv (fun () -> sv.sv_requests <- sv.sv_requests + 1);
  match service_find sv task with
  | Some (report, _) -> (report, true)
  | None ->
    let report = run ?obs task in
    if task.Task.t_fault = None then
      service_store sv ~digest:(service_digest sv task) report;
    (report, false)
