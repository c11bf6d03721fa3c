module Taint = Ndroid_taint.Taint
module Device = Ndroid_runtime.Device
module Taint_engine = Ndroid_emulator.Taint_engine
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Multilevel = Ndroid_emulator.Multilevel
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Vm = Ndroid_dalvik.Vm
module Classes = Ndroid_dalvik.Classes
module A = Ndroid_android
module Ring = Ndroid_obs.Ring
module J = Ndroid_jni.Jni_names

type frame_snapshot = { fs_name : string; fs_regs : int array }

type t = {
  device : Device.t;
  engine : Taint_engine.t;
  log : Ring.t;
  table : Source_policy.Table.t;
  multilevel : Multilevel.t;
  use_multilevel : bool;
  mutable pre_stack : frame_snapshot list;
  mutable policies_applied : int;
}

let policies t = t.table
let policies_applied t = t.policies_applied
let multilevel_checks t = Multilevel.checks t.multilevel

(* ---- event handling ---- *)

(* JNI entry (hook group 1): build the SourcePolicy for the in-flight call.
   Shared between the dvmCallJNIMethod host-function hook (emulated path)
   and the summary fast path, which skips the bridge but must produce the
   same policy state and log lines. *)
let on_jni_enter t =
  match Device.current_jni_call t.device with
  | Some jc ->
    let p = Source_policy.of_jni_call jc in
    Ring.logf t.log "name: %s" p.Source_policy.method_name;
    Ring.logf t.log "shorty: %s" p.Source_policy.method_shorty;
    Ring.logf t.log "class: %s" p.Source_policy.class_name;
    Array.iteri
      (fun i (v, tag) ->
        if Taint.is_tainted tag then
          Ring.emit_arg_taint t.log ~idx:i
            ~value:(Ndroid_dalvik.Dvalue.to_string v)
            ~taint:(Taint.to_bits tag))
      jc.Device.jc_args;
    if Source_policy.any_tainted p then begin
      (* a policy at a *new* address changes where blocks must end, so any
         cached superblock translation may now run through a policy entry *)
      if not (Source_policy.Table.mem t.table p.Source_policy.method_address)
      then (
        match Machine.superblocks (Device.machine t.device) with
        | Some sb -> Ndroid_emulator.Superblock.flush sb
        | None -> ());
      Source_policy.Table.add t.table p;
      let arg_taint =
        Array.fold_left
          (fun acc tag -> acc lor Taint.to_bits tag)
          (List.fold_left
             (fun acc tag -> acc lor Taint.to_bits tag)
             0
             [ p.Source_policy.t_r0; p.Source_policy.t_r1;
               p.Source_policy.t_r2; p.Source_policy.t_r3 ])
          p.Source_policy.stack_args_taints
      in
      Ring.emit_source t.log ~name:p.Source_policy.method_name
        ~cls:p.Source_policy.class_name
        ~addr:p.Source_policy.method_address ~taint:arg_taint
    end
  | None -> ()

let on_host_pre t (row : J.row) =
  let cpu = Machine.cpu (Device.machine t.device) in
  t.pre_stack <-
    { fs_name = row.J.name; fs_regs = Array.copy cpu.Cpu.regs } :: t.pre_stack;
  match row.J.shape with
  | J.Field { set = true; _ } ->
    (* value is argument 3; objects contribute their own tag *)
    let fid = Cpu.reg cpu 2 and obj_iref = Cpu.reg cpu 1 in
    let raw = Cpu.reg cpu 3 in
    let tag =
      Taint.union (Taint_engine.reg t.engine 3)
        (Device.object_taint t.device ~iref:raw)
    in
    if Taint.is_tainted tag then begin
      Device.add_field_taint t.device ~obj_iref ~fid tag;
      Ring.logf t.log "TrustCallHandler[%s]: field taint := %a" row.J.name
        Taint.pp tag
    end
  | J.Array_elements { release = true; ty } ->
    let arr = Cpu.reg cpu 1 and buf = Cpu.reg cpu 2 and mode = Cpu.reg cpu 3 in
    if mode <> 2 then (
      match Device.array_length t.device ~iref:arr with
      | Some len ->
        let tag = Taint_engine.mem t.engine buf (len * J.width ty) in
        if Taint.is_tainted tag then Device.add_object_taint t.device ~iref:arr tag
      | None -> ())
  | J.Array_region { set = true; ty } ->
    (* native buffer contents flow into the Java array *)
    let mem = Machine.mem (Device.machine t.device) in
    let arr = Cpu.reg cpu 1
    and len = Cpu.reg cpu 3
    and buf = A.Libc_model.arg cpu mem 4 in
    let tag = Taint_engine.mem t.engine buf (len * J.width ty) in
    if Taint.is_tainted tag then Device.add_object_taint t.device ~iref:arr tag
  | J.Single -> (
    match row.J.name with
    | "dvmCallJNIMethod" -> on_jni_enter t
    | "dvmInterpret" -> (
      (* Fig. 9: log the frame about to be interpreted and the taints NDroid
         injects into its slots. *)
      match Device.pending_interp_args t.device with
      | Some (args, jm) ->
        Ring.logf t.log "dvmInterpret Begin";
        Ring.logf t.log "Method Name: %s" jm.Classes.m_name;
        Ring.logf t.log "Method Shorty: %s" jm.Classes.m_shorty;
        Array.iteri
          (fun i (_, tag) ->
            if Taint.is_tainted tag then begin
              Ring.logf t.log "args[%d] taint: %a" i Taint.pp tag;
              Ring.logf t.log "add taint to new method frame"
            end)
          args
      | None -> ())
    | "SetObjectArrayElement" ->
      let arr = Cpu.reg cpu 1 and v = Cpu.reg cpu 3 in
      let tag =
        Taint.union (Taint_engine.reg t.engine 3)
          (Device.object_taint t.device ~iref:v)
      in
      if Taint.is_tainted tag then Device.add_object_taint t.device ~iref:arr tag
    | _ -> ())
  | J.Call_method _ | J.Field _ | J.New_array _ | J.Array_elements _
  | J.Array_region _ | J.Math _ ->
    ()

let on_host_post t (row : J.row) =
  let machine = Device.machine t.device in
  let cpu = Machine.cpu machine in
  let mem = Machine.mem machine in
  let name = row.J.name in
  let pre =
    match t.pre_stack with
    | top :: rest when top.fs_name = name ->
      t.pre_stack <- rest;
      Some top.fs_regs
    | _ -> None
  in
  let pre_reg i = match pre with Some regs -> regs.(i) | None -> Cpu.reg cpu i in
  match row.J.shape with
  | J.Call_method { ret; _ } ->
    (* JNI exit: Java's return taint enters the native shadow registers. *)
    let _, ret_taint = (Device.vm t.device).Vm.ret in
    Taint_engine.set_reg t.engine 0 ret_taint;
    if J.width ret = 8 then Taint_engine.set_reg t.engine 1 ret_taint;
    if Taint.is_tainted ret_taint then
      Ring.emit_jni_ret t.log ~name ~taint:(Taint.to_bits ret_taint)
  | J.Field { set = false; _ } ->
    let fid = pre_reg 2 and obj_iref = pre_reg 1 in
    let tag = Device.field_taint t.device ~obj_iref ~fid in
    Taint_engine.set_reg t.engine 0 tag;
    if Taint.is_tainted tag then
      Ring.logf t.log "TrustCallHandler[%s]: t(r0) := %a" name Taint.pp tag
  | J.Array_elements { release = false; ty } -> (
    let arr = pre_reg 1 in
    let buf = Cpu.reg cpu 0 in
    match Device.array_length t.device ~iref:arr with
    | Some len when buf <> 0 ->
      let tag = Device.object_taint t.device ~iref:arr in
      if Taint.is_tainted tag then
        Taint_engine.add_mem t.engine buf (len * J.width ty) tag
    | Some _ | None -> ())
  | J.Array_region { set = false; ty } ->
    (* Java array contents landed in a native buffer *)
    let arr = pre_reg 1 and len = pre_reg 3 in
    let buf = Memory.read_u32 mem (pre_reg 13) in
    let tag = Device.object_taint t.device ~iref:arr in
    if Taint.is_tainted tag && len > 0 then
      Taint_engine.add_mem t.engine buf (len * J.width ty) tag
  | J.Single -> (
    match name with
    | "NewStringUTF" ->
      let cstr = pre_reg 1 in
      let s = Memory.read_cstring mem cstr in
      let tag =
        Taint.union
          (Taint_engine.mem t.engine cstr (String.length s + 1))
          (Taint_engine.reg t.engine 1)
      in
      let iref = Cpu.reg cpu 0 in
      if Taint.is_tainted tag then begin
        Device.add_object_taint t.device ~iref tag;
        (match Device.object_addr t.device ~iref with
         | Some addr ->
           Ring.logf t.log "realStringAddr:0x%x" addr;
           Ring.logf t.log "add taint %a to new string object@0x%x" Taint.pp
             tag addr;
           Ring.emit_taint_mem t.log ~addr ~taint:(Taint.to_bits tag)
         | None -> ());
        Ring.logf t.log "NewStringUTF return 0x%x" iref
      end
    | "NewString" ->
      let ptr = pre_reg 1 and len = pre_reg 2 in
      let tag =
        Taint.union (Taint_engine.mem t.engine ptr (2 * len))
          (Taint_engine.reg t.engine 1)
      in
      let iref = Cpu.reg cpu 0 in
      if Taint.is_tainted tag then Device.add_object_taint t.device ~iref tag
    | "dvmCreateStringFromCstr" ->
      let s = Memory.read_cstring mem (pre_reg 1) in
      Ring.logf t.log "dvmCreateStringFromCstr Begin";
      Ring.logf t.log "%s" s;
      Ring.logf t.log "dvmCreateStringFromCstr return 0x%x" (Cpu.reg cpu 0)
    | "GetStringUTFChars" ->
      let jstring = pre_reg 1 in
      let buf = Cpu.reg cpu 0 in
      if buf <> 0 then begin
        let s = Memory.read_cstring mem buf in
        let tag = Device.object_taint t.device ~iref:jstring in
        Ring.logf t.log "TrustCallHandler[GetStringUTFChars] begin";
        if Taint.is_tainted tag then begin
          Taint_engine.add_mem t.engine buf (String.length s + 1) tag;
          Taint_engine.set_reg t.engine 0 tag;
          Ring.logf t.log "jstring taint:%a" Taint.pp tag;
          Ring.emit_taint_mem t.log ~addr:buf ~taint:(Taint.to_bits tag)
        end;
        Ring.logf t.log "TrustCallHandler[GetStringUTFChars] end"
      end
    | "GetStringChars" -> (
      let jstring = pre_reg 1 in
      let buf = Cpu.reg cpu 0 in
      match Device.array_length t.device ~iref:jstring with
      | Some len when buf <> 0 ->
        let tag = Device.object_taint t.device ~iref:jstring in
        if Taint.is_tainted tag then begin
          Taint_engine.add_mem t.engine buf ((2 * len) + 2) tag;
          Taint_engine.set_reg t.engine 0 tag
        end
      | Some _ | None -> ())
    | "GetStringUTFLength" | "GetStringLength" | "GetArrayLength" ->
      Taint_engine.set_reg t.engine 0 (Device.object_taint t.device ~iref:(pre_reg 1))
    | "GetObjectArrayElement" ->
      let arr_tag = Device.object_taint t.device ~iref:(pre_reg 1) in
      let elem = Cpu.reg cpu 0 in
      Taint_engine.set_reg t.engine 0 arr_tag;
      if elem <> 0 && Taint.is_tainted arr_tag then
        Device.add_object_taint t.device ~iref:elem arr_tag
    | "ThrowNew" -> Ring.logf t.log "ThrowNew: exception carries native taint"
    | "GetStringUTFRegion" | "GetStringRegion" ->
      (* Java string chars landed in a native buffer (arg 4, on the stack) *)
      let jstring = pre_reg 1 and len = pre_reg 3 in
      let buf = Memory.read_u32 mem (pre_reg 13) in
      let tag = Device.object_taint t.device ~iref:jstring in
      let width = if name = "GetStringRegion" then 2 else 1 in
      if Taint.is_tainted tag && len > 0 then
        Taint_engine.add_mem t.engine buf ((len * width) + 1) tag
    | _ -> ())
  | J.Field _ | J.New_array _ | J.Array_elements _ | J.Array_region _ | J.Math _ -> ()

(* The multilevel chain's second and third levels (Fig. 5), in the layout
   every device mounts. *)
let dvm_call_method =
  let addrs =
    List.filter_map Device.host_fn_addr
      [ "dvmCallMethod"; "dvmCallMethodV"; "dvmCallMethodA" ]
  in
  fun addr -> List.mem addr addrs

let interpret_addr = Option.value (Device.host_fn_addr "dvmInterpret") ~default:(-1)

let on_insn t ~addr =
  match Source_policy.Table.find t.table addr with
  | Some p ->
    let cpu = Machine.cpu (Device.machine t.device) in
    Source_policy.apply p t.engine cpu;
    t.policies_applied <- t.policies_applied + 1;
    Ring.emit_policy_apply t.log ~addr;
    List.iter
      (fun (tag, r) ->
        if Taint.is_tainted tag then
          Ring.emit_taint_reg t.log ~reg:r ~taint:(Taint.to_bits tag))
      [ (p.Source_policy.t_r0, 0); (p.Source_policy.t_r1, 1);
        (p.Source_policy.t_r2, 2); (p.Source_policy.t_r3, 3) ]
  | None -> ()

let attach ?(use_multilevel = true) ?(gate = fun () -> true) device engine log =
  let machine = Device.machine device in
  (* the multilevel chain's first test runs on every observed branch: a
     target outside the mounted-address bounds is guest code, answered
     with two compares before any table probe *)
  let call_entry addr =
    Machine.in_host_range machine addr
    && match Device.host_row addr with
       | Some { J.shape = J.Call_method _; _ } -> true
       | Some _ | None -> false
  in
  let multilevel =
    Multilevel.create
      ~chain:[ call_entry; dvm_call_method; Multilevel.exact interpret_addr ]
      ~in_native:Layout.in_app_lib
  in
  let t =
    { device;
      engine;
      log;
      table = Source_policy.Table.create ();
      multilevel;
      use_multilevel;
      pre_stack = [];
      policies_applied = 0 }
  in
  if not use_multilevel then
    (* Ablation A2: hook every interpreter entry instead of only the ones a
       native-originated chain reaches. *)
    (Device.vm device).Vm.on_invoke <-
      Some
        (fun jm ->
          if not (gate ()) then ()
          else begin
          (* the scan the hook would do: inspect each would-be argument
             slot of the frame *)
          let n = Classes.ins_count jm in
          for i = 0 to n - 1 do
            ignore (Taint_engine.reg t.engine (i land 15))
          done
          end);
  (* [gate] is the focused-execution switch: while it returns [false] every
     hook group stays dormant, so unfocused code pays no instrumentation. *)
  Machine.add_listener machine (fun ev ->
      if gate () then
        match ev with
        | Machine.Ev_host_pre hf -> (
          match Device.host_row hf.Machine.hf_addr with
          | Some ({ J.lib = J.Libdvm; _ } as row) -> on_host_pre t row
          | Some _ | None -> ())
        | Machine.Ev_host_post hf -> (
          match Device.host_row hf.Machine.hf_addr with
          | Some ({ J.lib = J.Libdvm; _ } as row) -> on_host_post t row
          | Some _ | None -> ())
        | Machine.Ev_branch { from_; to_; _ } ->
          if t.use_multilevel then
            ignore (Multilevel.observe t.multilevel ~from_ ~to_)
        | Machine.Ev_svc _ -> ());
  t
