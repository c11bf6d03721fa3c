(* Allocation guard for NDroid's native trace loop.

   Each instruction-bound CF-Bench native category runs on an NDroid-
   attached device with the pipeline's switches (summaries on).  The
   category runs once at n iterations and once at 2n; the difference in
   minor-heap words over the difference in native instructions is the
   marginal cost of one traced instruction.  The JNI crossing, the
   summary lookup and the bridge's marshaling are paid once per run, so
   they cancel out.  No timing is involved: a change that makes the
   per-instruction path allocate fails here on any machine. *)

module CF = Ndroid_apps.Cfbench
module H = Ndroid_apps.Harness
module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Ndroid = Ndroid_core.Ndroid

let iterations = 2000
let bound = 0.1

(* minor words allocated by one run, and the native instructions it ran *)
let measure device (w : CF.workload) n =
  let machine = Device.machine device in
  let i0 = Machine.insn_count machine in
  let w0 = Gc.minor_words () in
  w.CF.w_run device ~iterations:n;
  let w1 = Gc.minor_words () in
  (w1 -. w0, Machine.insn_count machine - i0)

let marginal_words_per_insn (w : CF.workload) =
  let device = H.boot CF.app in
  CF.prepare device;
  ignore (Ndroid.attach ~use_summaries:true device : Ndroid.t);
  (* warm-up: decode cache, touched pages, derived summaries *)
  ignore (measure device w iterations);
  let words1, insns1 = measure device w iterations in
  let words2, insns2 = measure device w (2 * iterations) in
  (words2 -. words1) /. float_of_int (insns2 - insns1)

let instruction_bound =
  [ "Native MIPS"; "Native MSFLOPS"; "Native MDFLOPS"; "Native Memory Read";
    "Native Memory Write" ]

let test_category name () =
  let w = List.find (fun (w : CF.workload) -> w.CF.w_name = name) CF.workloads in
  let per_insn = marginal_words_per_insn w in
  if per_insn >= bound then
    Alcotest.failf "%s: %.3f minor words per traced instruction (bound %.1f)" name
      per_insn bound

let suite =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": trace loop allocates nothing") `Quick
        (test_category name))
    instruction_bound

(* Booting a device: the host-function layout is shared by every device
   and the decode cache fits the minor heap, so a boot plus an NDroid
   attach on a reused ring allocates nothing directly in the major heap
   and a bounded number of minor words.  Major words minus promoted
   words is what went straight to the major heap. *)
module Ring = Ndroid_obs.Ring

let boot_minor_bound = 5_100.

let test_device_boot () =
  let ring = Ring.create () in
  let boot () =
    ignore (Sys.opaque_identity (Ndroid.attach ~obs:ring (Device.create ())))
  in
  boot ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  boot ();
  let minor = Gc.minor_words () -. minor0 in
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  Alcotest.(check (float 0.)) "major-heap words allocated directly" 0. direct;
  if minor > boot_minor_bound then
    Alcotest.failf "boot + attach: %.0f minor words (bound %.0f)" minor
      boot_minor_bound

let suite =
  suite
  @ [ Alcotest.test_case "device boot: no major-heap words, bounded minor"
        `Quick test_device_boot ]

(* Static triage of a flow-free market app: the analyzer lowers the
   cross-language IR and slices it only when the fixpoint recorded a
   flow, and a Dalvik method's reaching definitions are built only for
   that lowering, so a clean app pays for the fixpoint alone.  The bound
   is the mean minor words of [Analyzer.analyze_apk] over the flow-free
   apps of a fixed market slice. *)
module Market = Ndroid_corpus.Market
module Apk = Ndroid_corpus.Apk
module Analyzer = Ndroid_static.Analyzer

let triage_minor_bound = 2_800.

let test_flow_free_triage () =
  let clean =
    List.filter_map
      (fun model ->
        let apk = Apk.of_app_model model in
        if Analyzer.flagged (Analyzer.analyze_apk apk) then None else Some apk)
      (List.of_seq (Market.generate (Market.scaled 300)))
  in
  Alcotest.(check bool) "the sample has flow-free apps" true (List.length clean > 200);
  let minor0 = Gc.minor_words () in
  List.iter
    (fun apk -> ignore (Sys.opaque_identity (Analyzer.analyze_apk apk)))
    clean;
  let mean = (Gc.minor_words () -. minor0) /. float_of_int (List.length clean) in
  if mean > triage_minor_bound then
    Alcotest.failf "analyze_apk of a flow-free app: %.0f minor words (bound %.0f)"
      mean triage_minor_bound

let suite =
  suite
  @ [ Alcotest.test_case "static triage of a flow-free market app" `Quick
        test_flow_free_triage ]
