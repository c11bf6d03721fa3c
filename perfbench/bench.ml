(* Run-wide state shared by the three workloads: the clock, operation and
   failure accounting, the metric values a run reports, and the in-memory
   span recorder behind the traced pass. *)

let now = Unix.gettimeofday

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

(* ---- accounting: every operation counts once, a failed one once more ---- *)

let attempted = ref 0
let failed = ref 0
let failures = ref 0  (* failed checks that are not operations *)

let fail_note = ref 0

let note why =
  (* the first few reasons are enough to debug a wrong answer *)
  incr fail_note;
  if !fail_note <= 10 then log "FAILED: %s" why

let op ok why =
  incr attempted;
  if not ok then begin
    incr failed;
    note (why ())
  end

let check ok why =
  if not ok then begin
    incr failures;
    note why
  end

(* ---- metric values ---- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v = Hashtbl.replace values name v

(* A timing metric: summarized through {!Stat}, logged with its sample
   count and spread, reported as the median. *)
let timing name samples =
  let s = Stat.summarize samples in
  log "%s: %s" name (Stat.describe s);
  set name s.Stat.median;
  s

(* ---- end-to-end: throughput and latency of the measured phase ---- *)

(* one operation a caller waited on: how long it took and how many items
   (apps, category runs, verdicts) it completed *)
type op_sample = { o_seconds : float; o_items : int }

(* Pooled over the whole measured phase, so a slowdown confined to part
   of a run still moves the figures: throughput is items per busy second
   of one of [concurrency] closed-loop callers, latency the median and
   p90 of every operation.  A run too short to put ten operations beyond
   the p90 fails its check. *)
let end_to_end ~concurrency samples =
  let lat = timing "latency_p50_ms" (List.map (fun o -> o.o_seconds *. 1e3) samples) in
  check (Stat.resolves lat.Stat.n 90.0) "too few operations to resolve p90";
  set "latency_p90_ms" (Stat.at lat 90.0);
  let items = List.fold_left (fun a o -> a + o.o_items) 0 samples in
  let busy = List.fold_left (fun a o -> a +. o.o_seconds) 0.0 samples in
  log "items_per_s: %d items in %d operations, %.4fs busy over %d callers" items
    lat.Stat.n busy concurrency;
  set "items_per_s" (float_of_int items /. (busy /. float_of_int concurrency))

(* [peak_rss_mb] after a fixed amount of work — the [after]-th [tick] —
   so a faster program, which does more work in a timed run, is not
   charged for the extra; a run too slow to get there reads at the end *)
type rss_probe = { after : int; mutable ticks : int; mutable mb : float option; pid : string }

(* ---- spans ---- *)

type span = { sp_layer : string; sp_op : int; sp_start : float; sp_stop : float }

let spans : span list ref = ref []

let span layer ~op f =
  let t0 = now () in
  let r = f () in
  spans := { sp_layer = layer; sp_op = op; sp_start = t0; sp_stop = now () } :: !spans;
  r

let add_span layer ~op ~start ~stop =
  spans := { sp_layer = layer; sp_op = op; sp_start = start; sp_stop = stop } :: !spans

let span_total () =
  List.fold_left (fun a s -> a +. (s.sp_stop -. s.sp_start)) 0.0 !spans

(* per-op time in [layer], summed over that op's spans *)
let per_op layer =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if String.equal s.sp_layer layer then
        Hashtbl.replace tbl s.sp_op
          ((s.sp_stop -. s.sp_start)
           +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sp_op)))
    !spans;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* attribution: the share of the traced wall time no layer span covers *)
let attribute ~wall =
  let covered = span_total () in
  log "trace: %d spans cover %.4fs of %.4fs traced wall" (List.length !spans)
    covered wall;
  set "trace.unattributed_frac" (1.0 -. (covered /. wall))

(* spans stay in memory during the run and are written out once at the
   end, as Chrome trace_event JSON beside the build *)
let write_spans path =
  match !spans with
  | [] -> ()
  | all ->
    let sorted = List.sort (fun a b -> Float.compare a.sp_start b.sp_start) all in
    let t0 = (List.hd sorted).sp_start in
    let oc = open_out path in
    output_string oc "[";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
          (if i = 0 then "" else ",")
          s.sp_layer
          ((s.sp_start -. t0) *. 1e6)
          ((s.sp_stop -. s.sp_start) *. 1e6)
          s.sp_op)
      sorted;
    output_string oc "\n]\n";
    close_out oc

(* ---- reports ---- *)

module Verdict = Ndroid_report.Verdict

(* a verdict that is a circumstance of the run, never an answer *)
let is_failure (r : Verdict.report) =
  match r.Verdict.r_verdict with
  | Verdict.Crashed _ | Verdict.Timeout -> true
  | Verdict.Clean | Verdict.Flagged _ -> false

let meta_int key (r : Verdict.report) =
  match List.assoc_opt key r.Verdict.r_meta with
  | Some j -> Option.value ~default:0 (Ndroid_report.Json.int j)
  | None -> 0

(* ---- process facts ---- *)

(* VmHWM of a live process, in MB *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let rss_probe ?(pid = "self") ~after () = { after; ticks = 0; mb = None; pid }

let rss_tick p =
  p.ticks <- p.ticks + 1;
  if p.ticks = p.after then p.mb <- Some (peak_rss_mb ~pid:p.pid ())

let rss_report p =
  set "peak_rss_mb" (match p.mb with Some mb -> mb | None -> peak_rss_mb ~pid:p.pid ())

(* where sockets and span files go: inside the checkout, never /tmp *)
let scratch = ref "."

let jobs () = max 1 (Domain.recommended_domain_count ())

let hash_string s = Digest.to_hex (Digest.string s)

(* ---- undisturbed cores ---- *)

(* Given the probe readings ({!Affinity}) of a run's operations, is a
   reading undisturbed: within [slack] of the run's tenth-percentile
   reading?  A run whose cores were undisturbed a tenth of the time
   reads its undisturbed speed there; the choice never looks at the
   program's own times. *)
let slack = 1.25

let undisturbed readings =
  let s = Stat.summarize (List.map (fun r -> r *. 1e3) readings) in
  let limit = slack *. Stat.at s 10.0 in
  log "probe_ms: %s p10=%.4g, undisturbed up to %.4g" (Stat.describe s) (Stat.at s 10.0)
    limit;
  fun r -> r *. 1e3 <= limit

(* ---- set-up time ---- *)

(* [setup_s] is the median of several timed set-ups spread over the run:
   the first before the measured phase, the rest at quiet points in it
   ([setup_count] in all through [setup_tick]).  The machine's speed
   drifts over seconds, so set-ups made together would all read one
   moment's speed; spread out, they see the moments the measured
   operations see.  Each starts from a compacted heap.  A single-threaded
   set-up can run [probed] ({!Affinity}); [setup_s] is then the median of
   the set-ups made on an undisturbed core. *)
let setup_count = 21

let setup_samples : (float * float option) list ref = ref []

let timed_setup ?probed f =
  Gc.compact ();
  let timed () =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let (v, seconds), reading =
    match probed with
    | Some probed ->
      let timing, r = probed timed in
      (timing, Some r)
    | None -> (timed (), None)
  in
  setup_samples := (seconds, reading) :: !setup_samples;
  v

(* at a quiet point of a measured phase of [seconds] that began at
   [start]: one more set-up, its product discarded, if one is due.  None
   is due before [rss] has read, so a discarded product never counts
   towards [peak_rss_mb]. *)
let setup_tick ?probed ~start ~seconds ~rss f =
  let n = List.length !setup_samples in
  if rss.mb <> None && n < setup_count
     && now () -. start >= float_of_int n *. seconds /. float_of_int setup_count
  then ignore (timed_setup ?probed f)

let setup_report () =
  let readings = List.filter_map snd !setup_samples in
  let keep = if readings = [] then fun _ -> true else undisturbed readings in
  let samples =
    List.filter_map
      (fun (s, r) -> match r with Some r when not (keep r) -> None | _ -> Some s)
      !setup_samples
  in
  if samples <> [] then ignore (timing "setup_s" samples)
