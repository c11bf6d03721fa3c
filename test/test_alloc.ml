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
