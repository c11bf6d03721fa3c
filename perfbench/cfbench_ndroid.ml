(* cfbench_ndroid: the paper's Fig. 10.  All thirteen CF-Bench categories
   on one device booted with [Harness.boot], NDroid attached with the
   pipeline's own feature switches, the modelled libc charge kept.  One
   suite pass runs every category once at its fixed iteration count; the
   native-instruction, bytecode and JNI-crossing counts of every category
   run are checked against the values recorded in the oracle file.

   The suite is single-threaded, and the machine's vCPUs are slowed one
   at a time by other tenants ({!Affinity}).  Each operation runs on the
   core that probes fastest just before it, and the timings are read
   from the operations made on an undisturbed core. *)

module CF = Ndroid_apps.Cfbench
module H = Ndroid_apps.Harness
module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Vm = Ndroid_dalvik.Vm
module Ndroid = Ndroid_core.Ndroid
module Taintdroid = Ndroid_taintdroid.Taintdroid
module Analysis = Ndroid_pipeline.Analysis

let slug name =
  String.map (function ' ' -> '_' | c -> Char.lowercase_ascii c) name

(* Fig. 10 order *)
let categories = List.map (fun (w : CF.workload) -> (slug w.CF.w_name, w)) CF.workloads

let counts_file = "perfbench/oracle/cfbench_counts.txt"

(* suite passes before [peak_rss_mb] is read *)
let rss_probe_at = 50

(* the dynamic path's switches exactly as [Analysis.feature_key] records
   them ("superblocks=false;summaries=true;..."), so this device runs
   what the pipeline runs *)
let feature name =
  String.split_on_char ';' Analysis.feature_key
  |> List.find_map (fun kv ->
         match String.split_on_char '=' kv with
         | [ k; v ] when String.equal k name -> bool_of_string_opt v
         | _ -> None)
  |> Option.value ~default:false

type counts = { insns : int; bytecodes : int; crossings : int }

let counts device =
  let c = (Device.vm device).Vm.counters in
  { insns = Machine.insn_count (Device.machine device);
    bytecodes = c.Vm.bytecodes;
    crossings = c.Vm.native_calls + c.Vm.jni_env_calls }

let diff a b =
  { insns = a.insns - b.insns; bytecodes = a.bytecodes - b.bytecodes;
    crossings = a.crossings - b.crossings }

type spec = {
  slug : string;
  work : CF.workload;
  iterations : int;
  expect : counts;  (* exact counts of one run at [iterations] *)
}

(* The oracle file fixes each category's iteration count and records the
   exact counts one run at that count produces: "slug iterations insns
   bytecodes crossings" per line, '#' starts a comment. *)
let load_specs () =
  let ic = open_in counts_file in
  let rec read acc =
    match input_line ic with
    | line when String.length line = 0 || line.[0] = '#' -> read acc
    | line ->
      read
        (Scanf.sscanf line " %s %d %d %d %d" (fun s it i b c ->
             (s, (it, { insns = i; bytecodes = b; crossings = c })))
         :: acc)
    | exception End_of_file -> acc
  in
  let recorded = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
  List.map
    (fun (s, work) ->
      match List.assoc_opt s recorded with
      | Some (iterations, expect) -> { slug = s; work; iterations; expect }
      | None -> failwith (Printf.sprintf "%s: no entry for category %s" counts_file s))
    categories

let boot_ndroid () =
  let device = H.boot CF.app in
  CF.prepare device;
  let nd =
    Ndroid.attach ~use_superblocks:(feature "superblocks")
      ~use_summaries:(feature "summaries") device
  in
  (device, nd)

let boot_vanilla () =
  let device = H.boot CF.app in
  CF.prepare device;
  Taintdroid.vanilla device;
  device

type run = { r_spec : spec; r_seconds : float; r_counts : counts }

(* one suite pass; with [op], every category run leaves a span *)
let pass ?op specs device =
  List.map
    (fun sp ->
      let c0 = counts device in
      let t0 = Bench.now () in
      sp.work.CF.w_run device ~iterations:sp.iterations;
      let t1 = Bench.now () in
      let c = diff (counts device) c0 in
      Option.iter (fun op -> Bench.add_span ("cfbench." ^ sp.slug) ~op ~start:t0 ~stop:t1) op;
      { r_spec = sp; r_seconds = t1 -. t0; r_counts = c })
    specs

(* one operation: a suite pass on the fastest core, with the slower of
   the two probe readings around it *)
type op = { runs : run list; sample : Bench.op_sample; reading : float }

let operation ?op specs device =
  let (runs, seconds), reading =
    Affinity.probed (fun () ->
        let t0 = Bench.now () in
        let runs = pass ?op specs device in
        (runs, Bench.now () -. t0))
  in
  { runs; sample = { Bench.o_seconds = seconds; o_items = List.length runs }; reading }

(* fewest operations a statistic reads, so p90 keeps ten samples beyond
   it *)
let min_kept = 120

(* the operations made on an undisturbed core; when there are fewer than
   [min_kept], the [min_kept] with the fastest probe readings *)
let undisturbed keep ops =
  match List.filter (fun o -> keep o.reading) ops with
  | kept when List.length kept >= min_kept -> kept
  | _ ->
    List.filteri
      (fun i _ -> i < min_kept)
      (List.sort (fun a b -> Float.compare a.reading b.reading) ops)

let readings ops = List.map (fun o -> o.reading) ops

let check_pass runs =
  List.iter
    (fun r ->
      let e = r.r_spec.expect and c = r.r_counts in
      Bench.op (e = c) (fun () ->
          Printf.sprintf
            "cfbench %s x%d: insns=%d bytecodes=%d crossings=%d, recorded %d %d %d"
            r.r_spec.slug r.r_spec.iterations c.insns c.bytecodes c.crossings
            e.insns e.bytecodes e.crossings))
    runs

let kind_seconds kind runs =
  List.fold_left
    (fun a r -> if r.r_spec.work.CF.w_kind = kind then a +. r.r_seconds else a)
    0.0 runs

let sum_counts f runs = List.fold_left (fun a r -> a + f r.r_counts) 0 runs

let category_seconds ops s =
  List.concat_map
    (fun o ->
      List.filter_map (fun r -> if r.r_spec.slug = s then Some r.r_seconds else None) o.runs)
    ops

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* [ndroid.slowdown_*]: the Fig. 10 ratio — per-category medians of the
   NDroid passes over a vanilla device's, geometric mean per kind, both
   on undisturbed cores *)
let slowdowns specs nd_ops ~seconds =
  let device = boot_vanilla () in
  ignore (pass specs device);
  let t_end = Bench.now () +. seconds in
  let rec go acc =
    if Bench.now () >= t_end && acc <> [] then acc else go (operation specs device :: acc)
  in
  let v_all = go [] in
  let v_ops = undisturbed (Bench.undisturbed (readings v_all)) v_all in
  let median l = (Stat.summarize l).Stat.median in
  let ratio kind =
    geomean
      (List.filter_map
         (fun sp ->
           if sp.work.CF.w_kind = kind then
             Some
               (median (category_seconds nd_ops sp.slug)
               /. median (category_seconds v_ops sp.slug))
           else None)
         specs)
  in
  Bench.set "ndroid.slowdown_native" (ratio CF.Native);
  Bench.set "ndroid.slowdown_java" (ratio CF.Java)

let layers specs device nd ~ops ~n_ops ~icache0 ~nd0 =
  List.iter
    (fun sp ->
      ignore (Bench.timing ("cfbench." ^ sp.slug ^ "_s") (category_seconds ops sp.slug)))
    specs;
  let per_suite kind = List.map (fun o -> kind_seconds kind o.runs) ops in
  let native = Bench.timing "cfbench.native_s" (per_suite CF.Native) in
  let java = Bench.timing "cfbench.java_s" (per_suite CF.Java) in
  let per_pass f = float_of_int (sum_counts f (List.hd ops).runs) in
  let all f = float_of_int (List.fold_left (fun a o -> a + sum_counts f o.runs) 0 ops) in
  Bench.set "emulator.native_insns" (per_pass (fun c -> c.insns));
  Bench.set "emulator.insns_per_s" (all (fun c -> c.insns) /. native.Stat.total);
  Bench.set "dalvik.bytecodes" (per_pass (fun c -> c.bytecodes));
  Bench.set "dalvik.bytecodes_per_s" (all (fun c -> c.bytecodes) /. java.Stat.total);
  Bench.set "jni.crossings" (per_pass (fun c -> c.crossings));
  (* the counters below run over every operation, disturbed or not *)
  let h0, m0 = icache0 and h1, m1 = Machine.icache_stats (Device.machine device) in
  Bench.set "emulator.icache_hit_frac"
    (float_of_int (h1 - h0) /. float_of_int (max 1 (h1 - h0 + m1 - m0)));
  let st = Ndroid.stats nd in
  let per f = float_of_int (f st - f nd0) /. float_of_int n_ops in
  Bench.set "ndroid.traced_insns" (per (fun s -> s.Ndroid.traced_instructions));
  Bench.set "ndroid.sink_checks" (per (fun s -> s.Ndroid.sink_checks));
  Bench.set "summary.applied" (per (fun s -> s.Ndroid.native_summaries_applied));
  Bench.set "summary.rejected" (per (fun s -> s.Ndroid.native_summaries_rejected))

let run ~seed:_ ~seconds ~trace =
  (* CF-Bench's inputs are fixed; there is nothing for the seed to vary *)
  let specs = load_specs () in
  (* set-up: boot, prepare the SD card, attach, and one warm-up pass that
     fills the decode cache and derives the library's summaries; each on
     the fastest core, between two probes *)
  let set_up () =
    let device, nd = boot_ndroid () in
    ignore (pass specs device);
    (device, nd)
  in
  let probed = Affinity.probed in
  let device, nd = Bench.timed_setup ~probed set_up in
  let icache0 = Machine.icache_stats (Device.machine device) in
  let nd0 = Ndroid.stats nd in
  let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let measured = if trace then seconds *. 0.7 else seconds in
  let start = Bench.now () in
  let t_end = start +. measured in
  let rss = Bench.rss_probe ~after:rss_probe_at () in
  (* with --trace 1, odd operations record spans and even ones do not:
     the two medians give the tracing overhead *)
  let rec go i traced untraced =
    if Bench.now () >= t_end && i >= 4 then (traced, untraced)
    else begin
      let spanned = trace && i mod 2 = 1 in
      let o = if spanned then operation ~op:i specs device else operation specs device in
      Bench.rss_tick rss;
      check_pass o.runs;
      Bench.setup_tick ~probed ~start ~seconds:measured ~rss set_up;
      if spanned then go (i + 1) (o :: traced) untraced else go (i + 1) traced (o :: untraced)
    end
  in
  let traced, untraced = go 0 [] [] in
  Bench.rss_report rss;
  let gc1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let all = traced @ untraced in
  let keep = Bench.undisturbed (readings all) in
  let kept = undisturbed keep all in
  Bench.log "%d of %d operations on an undisturbed core" (List.length kept) (List.length all);
  Bench.end_to_end ~concurrency:1 (List.map (fun o -> o.sample) kept);
  if trace then begin
    let n_ops = List.length all in
    layers specs device nd ~ops:kept ~n_ops ~icache0 ~nd0;
    Bench.set "gc.minor_words_per_op"
      ((w1 -. w0) /. float_of_int (n_ops * List.length specs));
    Bench.set "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    let walls l = List.map (fun o -> o.sample.Bench.o_seconds) l in
    (* every traced pass left spans, so attribution reads them all *)
    Bench.attribute ~wall:(List.fold_left ( +. ) 0.0 (walls traced));
    let median l = (Stat.summarize (walls (undisturbed keep l))).Stat.median in
    Bench.set "trace.overhead_ratio" (median traced /. median untraced);
    slowdowns specs kept ~seconds:(seconds *. 0.3)
  end
