module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Os_view = Ndroid_emulator.Os_view
module Taint_map = Ndroid_taint.Taint_map
module Taintdroid = Ndroid_taintdroid.Taintdroid

type t = {
  mutable scratch : int;
  map : Taint_map.t;
  view : Os_view.view;
}

(* The cost model: the introspection work per machine instruction; the
   dispatch-and-execute instructions the interpreter runs per bytecode,
   each paying the per-instruction cost; and a library function's body,
   which DroidScope instruments in full where NDroid substitutes a
   summary. *)
let vmi_work_per_insn = 90
let insns_per_bytecode = 3
let insns_per_host_call = 110

(* One instrumented instruction: reconstruct enough OS/DVM-level state to
   attribute the instruction (region lookup + introspection hashing), then
   apply an instruction-level shadow-memory operation. *)
let instrument t addr =
  (match Os_view.find_region t.view addr with
   | Some r -> t.scratch <- t.scratch lxor r.Os_view.r_base
   | None -> ());
  let acc = ref t.scratch in
  for i = 1 to vmi_work_per_insn do
    acc := ((!acc * 1103515245) + 12345 + i) land 0xFFFFFF
  done;
  t.scratch <- !acc;
  Taint_map.add t.map (addr land 0xFFFF) Ndroid_taint.Taint.clear;
  if !acc land 0xFFF = 0 then Taint_map.set t.map (addr land 0xFFFF) Ndroid_taint.Taint.clear

let attach device =
  Taintdroid.attach device;
  let machine = Device.machine device in
  let t =
    { scratch = 0x5ca1ab1e;
      map = Taint_map.create ();
      view = Os_view.reconstruct machine }
  in
  (* every native instruction, system libraries included: no filter *)
  Machine.add_insn_hook machine (fun addr _ -> instrument t addr);
  Machine.add_listener machine (fun ev ->
      match ev with
      | Machine.Ev_host_pre hf ->
        (* DroidScope has no function summaries: a library call is just
           more instructions.  Model the library body's instruction
           stream. *)
        for i = 0 to insns_per_host_call - 1 do
          instrument t (hf.Machine.hf_addr + (4 * i))
        done
      | Machine.Ev_host_post _ | Machine.Ev_branch _ | Machine.Ev_svc _ -> ());
  (* the Dalvik interpreter itself runs on the emulated CPU: every bytecode
     costs a dispatch-and-execute burst of instrumented instructions *)
  (Device.vm device).Ndroid_dalvik.Vm.on_bytecode <-
    Some
      (fun _m _insn ->
        for i = 0 to insns_per_bytecode - 1 do
          instrument t (0x40030000 + (4 * i))
        done)
