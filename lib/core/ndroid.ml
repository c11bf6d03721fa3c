module Taint = Ndroid_taint.Taint
module Device = Ndroid_runtime.Device
module Taint_engine = Ndroid_emulator.Taint_engine
module Insn_taint = Ndroid_emulator.Insn_taint
module Machine = Ndroid_emulator.Machine
module Tracer = Ndroid_emulator.Tracer
module Superblock = Ndroid_emulator.Superblock
module Summary = Ndroid_summary.Summary
module Classes = Ndroid_dalvik.Classes
module Vm = Ndroid_dalvik.Vm
module Taintdroid = Ndroid_taintdroid.Taintdroid
module Focus = Ndroid_report.Focus

(* Focused execution (the hybrid pipeline's dynamic half): tracking starts
   disabled and ratchets on — permanently — the first time control enters a
   method or native function on the static slice. *)
type focus_state = {
  fs_active : bool ref;
  fs_methods_hit : int ref;  (* focus-set method entries observed *)
  fs_act_bytecodes : int option ref;
      (* bytecode count at activation; [None] = never activated *)
}

type t = {
  t_device : Device.t;
  t_engine : Taint_engine.t;
  t_log : Flow_log.t;
  dvm_hooks : Dvm_hook_engine.t;
  syslib : Syslib_hook_engine.t;
  tracer : Tracer.t;
  t_focus : focus_state option;
  _taintdroid : Taintdroid.t;
}

type stats = {
  source_policies : int;
  policies_applied : int;
  traced_instructions : int;
  skipped_instructions : int;
  summaries_applied : int;
  sink_checks : int;
  multilevel_checks : int;
  tainted_bytes : int;
  sb_compiles : int;
  sb_hits : int;
  sb_invalidations : int;
  native_summaries_applied : int;
  native_summaries_rejected : int;
  focused_methods : int;
  skipped_bytecodes : int;
}

let attach ?(use_multilevel = true) ?(use_superblocks = false)
    ?(use_summaries = false) ?trace_filter ?obs ?focus device =
  let td = Taintdroid.attach device in
  let engine = Taint_engine.create () in
  let vm = Device.vm device in
  let fstate =
    match focus with
    | Some f when not (Focus.is_empty f) ->
      let meths = Hashtbl.create 64 and nats = Hashtbl.create 64 in
      List.iter (fun m -> Hashtbl.replace meths m ()) f.Focus.methods;
      List.iter (fun s -> Hashtbl.replace nats s ()) f.Focus.natives;
      Some
        ( { fs_active = ref false;
            fs_methods_hit = ref 0;
            fs_act_bytecodes = ref None },
          meths,
          nats )
    | _ -> None
  in
  let gate =
    match fstate with
    | None -> fun () -> true
    | Some (st, _, _) -> fun () -> !(st.fs_active)
  in
  let activate st =
    if not !(st.fs_active) then begin
      st.fs_active := true;
      st.fs_act_bytecodes := Some vm.Vm.counters.Vm.bytecodes;
      vm.Vm.track_taint <- true
    end
  in
  (* Native-side activation: a JNI crossing into a focused native method
     (or a focused method that happens to be native) flips tracking on.
     Registered before the hook engine's listener, so by the time the
     dvmCallJNIMethod hook builds its SourcePolicy the gate is open. *)
  let jni_call_activates st meths nats () =
    if not !(st.fs_active) then
      match Device.current_jni_call device with
      | Some jc ->
        let jm = jc.Device.jc_method in
        let focused =
          Hashtbl.mem meths (Classes.qualified_name jm)
          || (match jm.Classes.m_body with
              | Classes.Native sym -> Hashtbl.mem nats sym
              | _ -> false)
        in
        if focused then begin
          incr st.fs_methods_hit;
          activate st
        end
      | None -> ()
  in
  (match fstate with
   | Some (st, meths, nats) ->
     Machine.add_listener (Device.machine device) (fun ev ->
         match ev with
         | Machine.Ev_host_pre hf when hf.Machine.hf_name = "dvmCallJNIMethod"
           ->
           jni_call_activates st meths nats ()
         | _ -> ())
   | None -> ());
  (* One ring backs everything: the flow log is a rendering view over it,
     the device (and through it the Dalvik VM and the machine) emits into
     it, and provenance reconstruction reads it back. *)
  let log =
    match obs with
    | Some ring -> Flow_log.of_ring ring
    | None -> Flow_log.create ()
  in
  Device.set_obs device (Flow_log.ring log);
  let dvm_hooks =
    Dvm_hook_engine.attach ~use_multilevel ~gate device engine log
  in
  let syslib = Syslib_hook_engine.attach device engine log in
  (* Java-side activation: the interpreter's invoke hook fires before the
     callee captures [track_taint], so a focused method runs fully
     tracked from its first bytecode. *)
  (match fstate with
   | Some (st, meths, _) ->
     let prev = vm.Vm.on_invoke in
     vm.Vm.on_invoke <-
       Some
         (fun jm ->
           if Hashtbl.mem meths (Classes.qualified_name jm) then begin
             incr st.fs_methods_hit;
             activate st
           end;
           match prev with Some f -> f jm | None -> ())
   | None -> ());
  let machine = Device.machine device in
  let cpu = Machine.cpu machine in
  let tracer = Tracer.create ?filter:trace_filter () in
  (* One instruction hook does the whole per-instruction job, in this
     order: a SourcePolicy registered at the address initialises the shadow
     registers, then, inside the traced region, the instruction's own
     Table V rule fires.  Without a focus set nothing is gated, and the
     hook makes no gate call at all. *)
  let hook =
    match fstate with
    | None ->
      fun addr insn ->
        Dvm_hook_engine.on_insn dvm_hooks ~addr;
        if Tracer.admit tracer addr then Insn_taint.step engine cpu ~addr insn
    | Some (st, _, _) ->
      fun addr insn ->
        let active = !(st.fs_active) in
        if active then Dvm_hook_engine.on_insn dvm_hooks ~addr;
        if Tracer.admit tracer addr && active then
          Insn_taint.step engine cpu ~addr insn
  in
  Machine.add_insn_hook machine hook;
  (* Superblock execution replaces the per-instruction trace loop: taint
     propagation moves into the blocks' fused/per-slot micro-ops, and the
     source-policy hook moves from every instruction to every block entry
     (policy addresses always start a block, and a policy at a new address
     flushes the block cache). *)
  if use_superblocks then begin
    let table = Dvm_hook_engine.policies dvm_hooks in
    ignore
      (Machine.enable_superblocks ~engine
         ~on_block_entry:(fun addr ->
           if gate () then Dvm_hook_engine.on_insn dvm_hooks ~addr)
         ~is_boundary:(fun addr -> Source_policy.Table.mem table addr)
         ~ring:(Flow_log.ring log) machine
        : Superblock.t)
  end;
  (* The summary fast path skips the dvmCallJNIMethod bridge, so the JNI-
     entry hook and the entry policy application run from here instead;
     the fused masks then land the body's whole taint effect at once. *)
  if use_summaries then begin
    Device.set_use_summaries device true;
    Device.set_summary_taint device (fun entry masks ->
        (* the summary fast path never enters the bridge, so the native
           activation listener can't see the crossing — check it here *)
        (match fstate with
         | Some (st, meths, nats) -> jni_call_activates st meths nats ()
         | None -> ());
        if gate () then begin
          Dvm_hook_engine.on_jni_enter dvm_hooks;
          Dvm_hook_engine.on_insn dvm_hooks ~addr:entry;
          Summary.apply_masks engine masks
        end)
  end;
  (* data entering Java from the native context carries the engine's taint *)
  (Device.native_taint_source device :=
     fun loc ->
       match loc with
       | Device.Loc_reg i -> Taint_engine.reg engine i
       | Device.Loc_mem (addr, len) -> Taint_engine.mem engine addr len
       | Device.Loc_iref iref -> Device.object_taint device ~iref);
  (* the JNI call bridge's return taint: TaintDroid's black-box rule
     unioned with the tracked native taint *)
  (Device.jni_return_policy device :=
     fun jc ~r0 ~r1:_ ->
       let black_box = Taintdroid.return_policy jc ~r0 ~r1:0 in
       let tracked = Taint_engine.reg engine 0 in
       let wide =
         match Classes.return_type jc.Device.jc_method with
         | 'J' | 'D' -> Taint_engine.reg engine 1
         | _ -> Taint.clear
       in
       let obj =
         match Classes.return_type jc.Device.jc_method with
         | 'L' when r0 <> 0 -> Device.object_taint device ~iref:r0
         | _ -> Taint.clear
       in
       Taint.union (Taint.union black_box tracked) (Taint.union wide obj));
  (* Taintdroid.attach switched full tracking on; with a focus set the run
     starts dark and the ratchet above lights it up. *)
  (match fstate with
   | Some (st, _, _) when not !(st.fs_active) -> vm.Vm.track_taint <- false
   | _ -> ());
  { t_device = device;
    t_engine = engine;
    t_log = log;
    dvm_hooks;
    syslib;
    tracer;
    t_focus = Option.map (fun (st, _, _) -> st) fstate;
    _taintdroid = td }

let device t = t.t_device
let engine t = t.t_engine
let log t = t.t_log

let stats t =
  let sb = Machine.superblocks (Device.machine t.t_device) in
  let sb_stat f = match sb with Some s -> f s | None -> 0 in
  { source_policies = Source_policy.Table.size (Dvm_hook_engine.policies t.dvm_hooks);
    policies_applied = Dvm_hook_engine.policies_applied t.dvm_hooks;
    traced_instructions = Tracer.traced t.tracer;
    skipped_instructions = Tracer.skipped t.tracer;
    summaries_applied = Syslib_hook_engine.summaries_applied t.syslib;
    sink_checks = Syslib_hook_engine.sink_checks t.syslib;
    multilevel_checks = Dvm_hook_engine.multilevel_checks t.dvm_hooks;
    tainted_bytes = Taint_engine.tainted_bytes t.t_engine;
    sb_compiles = sb_stat Superblock.compiles;
    sb_hits = sb_stat Superblock.hits;
    sb_invalidations = sb_stat Superblock.invalidations;
    native_summaries_applied = Device.summaries_applied t.t_device;
    native_summaries_rejected = Device.summaries_rejected t.t_device;
    focused_methods =
      (match t.t_focus with Some st -> !(st.fs_methods_hit) | None -> 0);
    skipped_bytecodes =
      (match t.t_focus with
       | Some st -> (
         match !(st.fs_act_bytecodes) with
         | Some at_activation -> at_activation
         | None -> (Device.vm t.t_device).Vm.counters.Vm.bytecodes)
       | None -> 0) }

let leaks t = Ndroid_android.Sink_monitor.leaks (Device.monitor t.t_device)

let flow_of_leak (l : Ndroid_android.Sink_monitor.leak) =
  { Ndroid_report.Flow.f_taint = l.Ndroid_android.Sink_monitor.taint;
    f_sink = l.Ndroid_android.Sink_monitor.sink;
    f_context =
      (match l.Ndroid_android.Sink_monitor.context with
       | Ndroid_android.Sink_monitor.Java_context -> Ndroid_report.Flow.Java_ctx
       | Ndroid_android.Sink_monitor.Native_context ->
         Ndroid_report.Flow.Native_ctx);
    f_site = l.Ndroid_android.Sink_monitor.detail;
    f_hops = [] }

let verdict t =
  let tainted =
    List.filter
      (fun (l : Ndroid_android.Sink_monitor.leak) ->
        Ndroid_taint.Taint.is_tainted l.Ndroid_android.Sink_monitor.taint)
      (leaks t)
  in
  let ring = Flow_log.ring t.t_log in
  let provenance flow = Ndroid_obs.Provenance.attach ring flow in
  Ndroid_report.Verdict.normalize
    (Ndroid_report.Verdict.Flagged
       (List.map (fun l -> provenance (flow_of_leak l)) tainted))

let pp_stats ppf s =
  Format.fprintf ppf
    "source policies: %d (applied %d); traced insns: %d (skipped %d); summaries: \
     %d; sink checks: %d; multilevel checks: %d; tainted bytes: %d; superblocks: \
     %d compiled (%d hits, %d invalidated); native summaries: %d applied (%d \
     rejected); focused methods: %d; skipped bytecodes: %d"
    s.source_policies s.policies_applied s.traced_instructions
    s.skipped_instructions s.summaries_applied s.sink_checks s.multilevel_checks
    s.tainted_bytes s.sb_compiles s.sb_hits s.sb_invalidations
    s.native_summaries_applied s.native_summaries_rejected s.focused_methods
    s.skipped_bytecodes
