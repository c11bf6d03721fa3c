(* market_triage: the paper's Sec. III triage at scale.  A seeded market
   slice in Hybrid mode through [Pool.run] with [Engine.Auto] (so
   domains), one worker per core and no disk cache, in batches of
   [batch_size] apps — each batch is one [Pool.run] call, the unit a
   caller of `ndroid analyze --market` waits on.  Verdicts are checked
   against the generator's own ground truth ([Market.app_is_leaky]). *)

module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Engine = Ndroid_pipeline.Engine
module Analysis = Ndroid_pipeline.Analysis
module Market_exec = Ndroid_pipeline.Market_exec
module Market = Ndroid_corpus.Market
module Apk = Ndroid_corpus.Apk
module Analyzer = Ndroid_static.Analyzer
module St_report = Ndroid_static.Report
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json

let slice_total = 100_000
let batch_size = 500
let n_batches = slice_total / batch_size

(* batches before [peak_rss_mb] is read.  The process grows by a fraction
   of a megabyte per [Pool.run] (domains spawned and joined), and how
   much varies from run to run, so the probe reads early: set-up plus
   twenty sweeps *)
let rss_probe_at = 20

(* batches of the traced single-domain pass *)
let traced_batches = 10

type corpus = {
  params : Market.params;
  leaky : bool array;  (* the oracle, by app id *)
  batches : Task.t list array;
}

(* Batch [k] takes every [n_batches]-th app from offset [k]: the generator
   lays its sub-populations out in id bands, so striding gives every batch
   the slice's own mix.  Task ids are batch positions, as [Pool.run]
   requires; the subject carries the app id. *)
let batch_ids k = Array.init batch_size (fun j -> k + (j * n_batches))

let batch_tasks (params : Market.params) k =
  Array.to_list
    (Array.mapi
       (fun pos id ->
         { Task.t_id = pos;
           t_subject =
             Task.Market
               { m_total = params.Market.total; m_seed = params.Market.seed;
                 m_permille = None; m_id = id };
           t_mode = Task.Hybrid;
           t_fault = None })
       (batch_ids k))

let params_of_seed seed = { (Market.scaled slice_total) with Market.seed }

let build_corpus seed =
  let params = params_of_seed seed in
  let leaky = Array.make slice_total false in
  Seq.iteri (fun i m -> leaky.(i) <- Market.app_is_leaky m) (Market.generate params);
  { params; leaky; batches = Array.init n_batches (batch_tasks params) }

let verdict_hash reports =
  Bench.hash_string
    (Json.to_string (Verdict.reports_to_json (Array.to_list reports)))

let check_batch c k reports =
  let ids = batch_ids k in
  Array.iteri
    (fun pos (r : Verdict.report) ->
      let id = ids.(pos) in
      Bench.op
        ((not (Bench.is_failure r)) && Verdict.flagged r.Verdict.r_verdict = c.leaky.(id))
        (fun () ->
          Printf.sprintf "market app %d (%s): verdict %s, oracle leaky=%b" id
            r.Verdict.r_app
            (Json.to_string (Verdict.to_json r.Verdict.r_verdict))
            c.leaky.(id)))
    reports

type sweep = {
  ops : Bench.op_sample list;  (* one per batch *)
  stats : Pool.stats list;
  hashes : (int, string) Hashtbl.t;  (* batch -> verdict hash *)
}

(* The measured loop: batches in order (wrapping round the slice) until
   [seconds] have passed, with the spread-out set-ups between batches.  A
   batch met a second time must hash the same — the same seed run
   twice. *)
let sweep c ~jobs ~seconds =
  let cfg = Pool.config ~jobs ~engine:Engine.Auto () in
  let rss = Bench.rss_probe ~after:rss_probe_at () in
  let hashes = Hashtbl.create n_batches in
  let start = Bench.now () in
  let t_end = start +. seconds in
  let rec go k ops stats =
    if Bench.now () >= t_end then begin
      Bench.rss_report rss;
      { ops; stats; hashes }
    end
    else begin
      let b = k mod n_batches in
      let t0 = Bench.now () in
      let reports, st = Pool.run cfg c.batches.(b) in
      let t1 = Bench.now () in
      Bench.rss_tick rss;
      check_batch c b reports;
      let h = verdict_hash reports in
      (match Hashtbl.find_opt hashes b with
       | Some h0 ->
         Bench.check (String.equal h h0)
           (Printf.sprintf "batch %d: verdict hash changed between two sweeps" b)
       | None -> Hashtbl.replace hashes b h);
      let op = { Bench.o_seconds = t1 -. t0; o_items = Array.length reports } in
      Bench.setup_tick ~probed:Affinity.probed ~start ~seconds ~rss (fun () ->
          build_corpus c.params.Market.seed);
      go (k + 1) (op :: ops) (st :: stats)
    end
  in
  go 0 [] []

(* Determinism: [--jobs 1] agrees with [--jobs N]; another seed changes
   the verdict hash (so the seed reaches the generator). *)
let determinism c sw =
  let h0 = Hashtbl.find sw.hashes 0 in
  let one, _ = Pool.run (Pool.config ~jobs:1 ~engine:Engine.Auto ()) c.batches.(0) in
  Bench.check (String.equal (verdict_hash one) h0)
    "batch 0: --jobs 1 and --jobs N verdict hashes differ";
  let other = batch_tasks (params_of_seed (c.params.Market.seed + 1)) 0 in
  let reports, _ = Pool.run (Pool.config ~jobs:(Bench.jobs ()) ~engine:Engine.Auto ()) other in
  Bench.check
    (not (String.equal (verdict_hash reports) h0))
    "batch 0: a different seed gave the same verdict hash"

let encode r = ignore (Json.to_string (Verdict.report_to_json r))

(* The traced pass: one domain calls the public pieces of a Hybrid
   analysis in sequence — digest, model, APK, static, focused dynamic,
   encode — each under a span.  The untraced baseline runs the same apps
   through [Analysis.run] (plus the same digest and encode), and every
   app's flagged bit must agree between the two. *)
let traced c =
  let tasks = List.concat (List.init traced_batches (fun k -> c.batches.(k))) in
  let ids = Array.concat (List.init traced_batches batch_ids) in
  let baseline = Hashtbl.create 4096 in
  let t0 = Bench.now () in
  List.iteri
    (fun i (task : Task.t) ->
      ignore (Analysis.digest task);
      let r = Analysis.run task in
      encode r;
      Hashtbl.replace baseline i (Verdict.flagged r.Verdict.r_verdict))
    tasks;
  let untraced_wall = Bench.now () -. t0 in
  let rounds = ref 0 and insns = ref 0 and flagged = ref 0 and crossings = ref 0 in
  let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Bench.now () in
  List.iteri
    (fun i (task : Task.t) ->
      let op = i in
      let id = ids.(i) in
      ignore (Bench.span "analysis" ~op (fun () -> Analysis.digest task));
      let model =
        Bench.span "corpus" ~op (fun () ->
            Task.market_model ~total:slice_total ~seed:c.params.Market.seed
              ~permille:None id)
      in
      let apk = Bench.span "corpus" ~op (fun () -> Apk.of_app_model model) in
      let v = Bench.span "static" ~op (fun () -> Analyzer.analyze_apk apk) in
      let sr = Bench.span "static" ~op (fun () -> St_report.to_report v) in
      let is_flagged = Verdict.flagged sr.Verdict.r_verdict in
      let dr =
        if is_flagged then
          Some
            (Bench.span "dynamic" ~op (fun () ->
                 Market_exec.run ~focus:v.Analyzer.v_focus model))
        else None
      in
      Bench.span "report" ~op (fun () ->
          encode sr;
          Option.iter encode dr);
      rounds := !rounds + v.Analyzer.v_rounds;
      insns := !insns + v.Analyzer.v_native_insns;
      if is_flagged then incr flagged;
      Option.iter (fun d -> crossings := !crossings + Bench.meta_int "jni_crossings" d) dr;
      Bench.check
        (Hashtbl.find baseline i = is_flagged)
        (Printf.sprintf "market app %d: traced pieces and Analysis.run disagree" id))
    tasks;
  let wall = Bench.now () -. t0 in
  let gc1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let n = List.length tasks in
  let us layer = List.map (fun s -> s *. 1e6) (Bench.per_op layer) in
  ignore (Bench.timing "corpus.materialize_us" (us "corpus"));
  ignore (Bench.timing "static.analyze_us" (us "static"));
  ignore (Bench.timing "dynamic.focused_us" (us "dynamic"));
  ignore (Bench.timing "analysis.digest_us" (us "analysis"));
  ignore (Bench.timing "report.encode_us" (us "report"));
  Bench.set "static.rounds" (float_of_int !rounds);
  Bench.set "static.native_insns" (float_of_int !insns);
  Bench.set "static.flagged_frac" (float_of_int !flagged /. float_of_int n);
  Bench.set "jni.crossings" (float_of_int !crossings);
  Bench.set "gc.minor_words_per_op" ((w1 -. w0) /. float_of_int n);
  Bench.set "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  Bench.attribute ~wall;
  Bench.set "trace.overhead_ratio" (wall /. untraced_wall)

let pool_layers jobs (stats : Pool.stats list) =
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 stats in
  Bench.set "pool.parallel_efficiency"
    (sum (fun s -> s.Pool.s_analyze_cpu)
     /. sum (fun s -> s.Pool.s_wall *. float_of_int jobs));
  ignore (Bench.timing "pool.collect_s" (List.map (fun s -> s.Pool.s_collect) stats));
  ignore
    (Bench.timing "pool.cache_pass_s" (List.map (fun s -> s.Pool.s_cache_pass) stats));
  ignore
    (Bench.timing "pool.steals"
       (List.map (fun s -> float_of_int s.Pool.s_steals) stats))

let run ~seed ~seconds ~trace =
  (* the corpus is built by one thread: on the fastest core, probed *)
  let c = Bench.timed_setup ~probed:Affinity.probed (fun () -> build_corpus seed) in
  let jobs = Bench.jobs () in
  let sw = sweep c ~jobs ~seconds:(if trace then seconds /. 2.0 else seconds) in
  determinism c sw;
  Bench.log "swept %d batches of %d apps on %d domains" (List.length sw.ops) batch_size
    jobs;
  Bench.end_to_end ~concurrency:1 sw.ops;
  if trace then begin
    pool_layers jobs sw.stats;
    traced c
  end
