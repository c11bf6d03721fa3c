module Vm = Ndroid_dalvik.Vm
module Interp = Ndroid_dalvik.Interp
module Classes = Ndroid_dalvik.Classes
module Dvalue = Ndroid_dalvik.Dvalue
module Heap = Ndroid_dalvik.Heap
module Jbuilder = Ndroid_dalvik.Jbuilder
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Asm = Ndroid_arm.Asm
module Taint = Ndroid_taint.Taint
module Indirect_ref = Ndroid_jni.Indirect_ref
module Arg_pool = Ndroid_jni.Arg_pool
module Summary = Ndroid_summary.Summary
module A = Ndroid_android
module J = Ndroid_jni.Jni_names

type taint_loc = Loc_mem of int * int | Loc_reg of int | Loc_iref of int

type jni_call = {
  jc_method : Classes.method_def;
  jc_addr : int;
  jc_entry : int;
  jc_args : Vm.tval array;
  jc_slots : (int * Taint.t) array;
}

type t = {
  d_vm : Vm.t;
  d_machine : Machine.t;
  d_fs : A.Filesystem.t;
  d_net : A.Network.t;
  d_nheap : A.Native_heap.t;
  d_monitor : A.Sink_monitor.t;
  d_irefs : Indirect_ref.t;
  d_libc : A.Libc_model.ctx;
  available_libs : (string, Asm.program) Hashtbl.t;
  loaded_libs : (string, Asm.program) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
  registered_natives : (string * string, int) Hashtbl.t;
      (* (class, method) -> entry point, via RegisterNatives *)
  dl_handles : (int, Asm.program) Hashtbl.t;
  mutable next_dl_handle : int;
  (* JNI handle tables *)
  class_handles : (int, string) Hashtbl.t;
  class_handle_of : (string, int) Hashtbl.t;
  mutable next_class_handle : int;
  method_handles : (int, Classes.method_def) Hashtbl.t;
  mutable next_method_handle : int;
  field_handles : (int, string * string * bool) Hashtbl.t;  (* class, field, static *)
  mutable next_field_handle : int;
  (* bridge state *)
  mutable cur_call : jni_call option;
  mutable bridge_result : Vm.tval;
  mutable pending_interp : (Vm.tval array * Classes.method_def) option;
  mutable pending_throw : Vm.tval option;
  (* analysis plug points *)
  ret_policy : (jni_call -> r0:int -> r1:int -> Taint.t) ref;
  taint_source : (taint_loc -> Taint.t) ref;
  (* pooled marshaling buffers: reused across JNI crossings, emitted into
     one exactly-sized array per call (see Ndroid_jni.Arg_pool) *)
  d_slot_pool : (int * Taint.t) Arg_pool.t;
  d_arg_pool : Vm.tval Arg_pool.t;
  mutable d_obs : Ndroid_obs.Ring.t;
  (* native taint summaries: per loaded library, derived at load time and
     applied by the JNI bridge instead of emulating the body when exact *)
  mutable lib_summaries : Summary.lib list;
  mutable use_summaries : bool;
  mutable summary_taint : int -> (int * int) array -> unit;
      (* (entry addr, masks): source-policy mimicry + fused-mask
         application against the attached taint engine; installed by the
         analysis attach layer, no-op when nothing is attached *)
  mutable summaries_applied : int;
  mutable summaries_rejected : int;
}

(* the JNIEnv* constant passed as the first native argument *)
let jni_env_ptr = Layout.libdvm_base + 0x7F000

let vm d = d.d_vm
let machine d = d.d_machine
let fs d = d.d_fs
let net d = d.d_net
let native_heap d = d.d_nheap
let monitor d = d.d_monitor
let libc_ctx d = d.d_libc
let jni_return_policy d = d.ret_policy
let native_taint_source d = d.taint_source

(* One hub observes the whole device: the Dalvik interpreter and the
   machine share it (the machine records instructions only while its
   [tracing] gate is up). *)
let set_obs d ring =
  d.d_obs <- ring;
  d.d_vm.Vm.obs <- ring;
  Machine.set_obs d.d_machine ring
let current_jni_call d = d.cur_call
let pending_interp_args d = d.pending_interp

let mask32 = 0xFFFFFFFF

(* ---------------- handle tables ---------------- *)

let normalize_class_name name =
  if String.length name > 0 && name.[0] = 'L' then name else "L" ^ name ^ ";"

let class_handle d name =
  let name = normalize_class_name name in
  match Hashtbl.find_opt d.class_handle_of name with
  | Some h -> h
  | None ->
    let h = 0x70000000 lor (d.next_class_handle lsl 2) in
    d.next_class_handle <- d.next_class_handle + 1;
    Hashtbl.replace d.class_handles h name;
    Hashtbl.replace d.class_handle_of name h;
    h

let class_of_handle d h = Hashtbl.find_opt d.class_handles h

let method_handle d m =
  let h = 0x71000000 lor (d.next_method_handle lsl 2) in
  d.next_method_handle <- d.next_method_handle + 1;
  Hashtbl.replace d.method_handles h m;
  h

let field_handle d cls fld static =
  let h = 0x72000000 lor (d.next_field_handle lsl 2) in
  d.next_field_handle <- d.next_field_handle + 1;
  Hashtbl.replace d.field_handles h (cls, fld, static);
  h

(* ---------------- value marshaling ---------------- *)

let iref_of_value d = function
  | Dvalue.Obj id -> Indirect_ref.add d.d_irefs ~obj_id:id
  | Dvalue.Null -> 0
  | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
    invalid_arg "iref_of_value: not a reference"

let value_of_iref d iref =
  if iref = 0 then Dvalue.Null
  else
    match Indirect_ref.resolve d.d_irefs iref with
    | Some id -> Dvalue.Obj id
    | None -> Dvalue.Null

let obj_taint d = function
  | Dvalue.Obj id -> (
    match Heap.get d.d_vm.Vm.heap id with
    | o -> o.Heap.taint
    | exception Not_found -> Taint.clear)
  | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
    Taint.clear

(* Marshal one Java argument into AAPCS slots, pushed onto the pooled
   buffer instead of returned as a fresh list. *)
let push_slots_of_arg d pool ty ((v, t) : Vm.tval) =
  match ty with
  | 'J' ->
    let n = Dvalue.as_long v in
    Arg_pool.push pool (Int64.to_int (Int64.logand n 0xFFFFFFFFL), t);
    Arg_pool.push pool (Int64.to_int (Int64.shift_right_logical n 32), t)
  | 'D' ->
    let bits = Int64.bits_of_float (Dvalue.as_double v) in
    Arg_pool.push pool (Int64.to_int (Int64.logand bits 0xFFFFFFFFL), t);
    Arg_pool.push pool (Int64.to_int (Int64.shift_right_logical bits 32), t)
  | 'F' ->
    Arg_pool.push pool
      (Int32.to_int (Int32.bits_of_float (Dvalue.as_float v)) land mask32, t)
  | 'L' -> Arg_pool.push pool (iref_of_value d v, Taint.union t (obj_taint d v))
  | _ -> Arg_pool.push pool (Int32.to_int (Dvalue.as_int v) land mask32, t)

let value_of_raw d ty ~r0 ~r1 =
  match ty with
  | 'V' -> Dvalue.zero
  | 'L' -> value_of_iref d r0
  | 'J' ->
    Dvalue.Long
      (Int64.logor (Int64.of_int r0) (Int64.shift_left (Int64.of_int r1) 32))
  | 'D' ->
    Dvalue.Double
      (Int64.float_of_bits
         (Int64.logor (Int64.of_int r0) (Int64.shift_left (Int64.of_int r1) 32)))
  | 'F' -> Dvalue.Float (Int32.float_of_bits (Int32.of_int r0))
  | 'Z' | 'B' | 'C' | 'S' | 'I' -> Dvalue.Int (Int32.of_int r0)
  | c -> raise (Vm.Dvm_error (Printf.sprintf "bad return shorty %c" c))

(* ---------------- native library management ---------------- *)

let provide_library d name prog = Hashtbl.replace d.available_libs name prog

let load_library d name =
  if not (Hashtbl.mem d.loaded_libs name) then begin
    let prog = Hashtbl.find d.available_libs name in
    Machine.load_program d.d_machine prog;
    Hashtbl.replace d.loaded_libs name prog;
    (* summarize the image now (cheap, digest-cached); whether the bridge
       uses the summaries is a separate switch *)
    d.lib_summaries <-
      Summary.derive_cached (Machine.mem d.d_machine) prog :: d.lib_summaries;
    List.iter
      (fun (sym, _addr) -> Hashtbl.replace d.symbols sym (Asm.fn_addr prog sym))
      (Asm.symbols prog);
    (* a library with a JNI_OnLoad runs it at load time, as on Android —
       this is where apps call RegisterNatives *)
    match Asm.fn_addr prog "JNI_OnLoad" with
    | entry ->
      ignore
        (Machine.call_native d.d_machine ~addr:entry ~args:[ jni_env_ptr; 0 ] ())
    | exception Not_found -> ()
  end

let dl_open d name =
  (* accept "libfoo.so", "foo.so" or plain "foo" *)
  let base = Filename.remove_extension (Filename.basename name) in
  let base =
    if String.length base > 3 && String.sub base 0 3 = "lib" then
      String.sub base 3 (String.length base - 3)
    else base
  in
  let resolved =
    if Hashtbl.mem d.available_libs name then Some name
    else if Hashtbl.mem d.available_libs base then Some base
    else None
  in
  match resolved with
  | None -> 0
  | Some lib ->
    load_library d lib;
    let prog = Hashtbl.find d.loaded_libs lib in
    let handle = d.next_dl_handle in
    d.next_dl_handle <- handle + 2;
    Hashtbl.replace d.dl_handles handle prog;
    handle

let dl_sym d handle sym =
  match Hashtbl.find_opt d.dl_handles handle with
  | Some prog -> (
    match Asm.fn_addr prog sym with a -> a | exception Not_found -> 0)
  | None -> 0

(* ---------------- JNI call bridge: Java -> native ---------------- *)

let dvm_call_jni_method_addr d = Machine.host_fn_addr d.d_machine "dvmCallJNIMethod"

let set_use_summaries d b = d.use_summaries <- b
let set_summary_taint d f = d.summary_taint <- f
let summaries_applied d = d.summaries_applied
let summaries_rejected d = d.summaries_rejected

let rec find_summary addr = function
  | [] -> None
  | l :: rest -> (
    match Summary.find l addr with
    | Some fn -> Some (l, fn)
    | None -> find_summary addr rest)

(* The summary fast path: skip the dvmCallJNIMethod bridge (and the native
   body emulation behind it) entirely when the target function has an exact
   summary.  Returns [true] with [d.bridge_result] set, or [false] to fall
   back to emulation — a clean library, an [Exact] verdict, and a register-
   only call shape (≤ 4 slots: stack-borne arguments would need the memory
   taints the policy writes at sp, which only the emulated path sees) are
   all required. *)
let try_summary d jc =
  if not d.use_summaries then false
  else
    match find_summary jc.jc_addr d.lib_summaries with
    | None -> false
    | Some (l, fn) -> (
      match fn.Summary.f_verdict with
      | Summary.Emulate _ -> false
      | Summary.Exact ->
        if Summary.dirty l || Array.length jc.jc_slots > 4 then false
        else begin
          (* taint first (source-policy mimicry consumes entry state),
             then values *)
          d.summary_taint jc.jc_addr fn.Summary.f_masks;
          let r0, r1 =
            Summary.eval fn ~cpu:(Machine.cpu d.d_machine)
              ~mem:(Machine.mem d.d_machine) ~slots:jc.jc_slots
          in
          let rt = Classes.return_type jc.jc_method in
          let v = value_of_raw d rt ~r0 ~r1 in
          let taint = !(d.ret_policy) jc ~r0 ~r1 in
          d.bridge_result <- (v, taint);
          d.summaries_applied <- d.summaries_applied + 1;
          let o = d.d_obs in
          if o.Ndroid_obs.Ring.on then
            Ndroid_obs.Ring.emit_summary_apply o
              ~name:(Classes.qualified_name jc.jc_method)
              ~taint:(Taint.to_bits taint);
          true
        end)

let native_dispatch d vm jm (args : Vm.tval array) =
  ignore vm;
  let symbol =
    match jm.Classes.m_body with
    | Classes.Native s -> s
    | Classes.Bytecode _ | Classes.Intrinsic _ -> assert false
  in
  let addr =
    match
      Hashtbl.find_opt d.registered_natives (jm.Classes.m_class, jm.Classes.m_name)
    with
    | Some a -> a
    | None -> (
      match Hashtbl.find_opt d.symbols symbol with
      | Some a -> a
      | None ->
        raise
          (Vm.Dvm_error
             (Printf.sprintf "UnsatisfiedLinkError: %s (library not loaded?)"
                symbol)))
  in
  (* marshal: (env, this|class, params...) through the pooled buffer *)
  let params = Classes.shorty_params jm.Classes.m_shorty in
  let pool = d.d_slot_pool in
  Arg_pool.reset pool;
  Arg_pool.push pool (jni_env_ptr, Taint.clear);
  let first_param =
    if jm.Classes.m_static then begin
      Arg_pool.push pool (class_handle d jm.Classes.m_class, Taint.clear);
      0
    end
    else begin
      if Array.length args = 0 then
        raise (Vm.Dvm_error "native instance method without this");
      let v, t = args.(0) in
      Arg_pool.push pool (iref_of_value d v, Taint.union t (obj_taint d v));
      1
    end
  in
  List.iteri
    (fun i ty -> push_slots_of_arg d pool ty args.(first_param + i))
    params;
  let slots = Arg_pool.emit pool in
  let jc =
    { jc_method = jm; jc_addr = addr land lnot 1; jc_entry = addr; jc_args = args;
      jc_slots = slots }
  in
  let saved_call = d.cur_call in
  d.cur_call <- Some jc;
  d.pending_throw <- None;
  let o = d.d_obs in
  let observed = o.Ndroid_obs.Ring.on in
  if observed then begin
    let crossing_taint =
      Array.fold_left
        (fun acc (_, t) -> acc lor Taint.to_bits t)
        0 slots
    in
    Ndroid_obs.Ring.emit_jni_begin o ~name:(Classes.qualified_name jm)
      ~direction:"java->native" ~taint:crossing_taint;
    Ndroid_obs.Metrics.observe_int
      (Ndroid_obs.Metrics.histogram (Ndroid_obs.Ring.metrics o) "jni_slots")
      (Array.length slots)
  end;
  (* The bridge itself is a hooked libdvm function: fire its events, then
     transfer control to the native method — unless an exact summary lets
     us skip the crossing altogether. *)
  if not (try_summary d jc) then begin
    if d.use_summaries then
      d.summaries_rejected <- d.summaries_rejected + 1;
    Machine.call_host d.d_machine ~from_:Layout.libdvm_base "dvmCallJNIMethod"
  end;
  let result = d.bridge_result in
  d.cur_call <- saved_call;
  if observed then
    Ndroid_obs.Ring.emit_jni_end o ~name:(Classes.qualified_name jm)
      ~direction:"java->native" ~taint:(Taint.to_bits (snd result));
  match d.pending_throw with
  | Some exn ->
    d.pending_throw <- None;
    raise (Vm.Java_throw exn)
  | None -> result

(* The body of the mounted dvmCallJNIMethod host function. *)
let run_call_bridge d _cpu _mem =
  match d.cur_call with
  | None -> raise (Vm.Dvm_error "dvmCallJNIMethod without a pending call")
  | Some jc ->
    let reg_args, stack_args =
      let all = Array.to_list (Array.map fst jc.jc_slots) in
      if List.length all <= 4 then (all, [])
      else (List.filteri (fun i _ -> i < 4) all, List.filteri (fun i _ -> i >= 4) all)
    in
    Machine.emit_branch d.d_machine ~from_:(dvm_call_jni_method_addr d)
      ~to_:jc.jc_addr ~is_call:true;
    let r0, r1 =
      Machine.call_native d.d_machine ~addr:jc.jc_entry ~args:reg_args ~stack_args ()
    in
    let rt = Classes.return_type jc.jc_method in
    let v = value_of_raw d rt ~r0 ~r1 in
    let taint = !(d.ret_policy) jc ~r0 ~r1 in
    d.bridge_result <- (v, taint)

(* ---------------- JNI env: native -> Java and helpers ---------------- *)

let arg = A.Libc_model.arg

let cstring d addr = Memory.read_cstring (Machine.mem d.d_machine) addr

let string_obj d iref =
  match value_of_iref d iref with
  | Dvalue.Obj id -> (
    match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
    | Heap.String s -> Some (id, s)
    | Heap.Array _ | Heap.Instance _ -> None)
  | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
    None

let query_taint d loc = !(d.taint_source) loc

(* Read the arguments of a native→Java invocation, pushing them onto the
   device's pooled argument buffer (the caller resets the pool and pushes
   the receiver first, then emits one exactly-sized frame).  [style]
   selects where they come from: registers+stack varargs, a va_list block,
   or a jvalue array (8 bytes per element, like the real union). *)
let read_java_args d cpu mem ~style ~first_vararg ~params =
  let vararg_slot = ref first_vararg in
  let next_reg_slot () =
    let i = !vararg_slot in
    incr vararg_slot;
    let v = arg cpu mem i in
    let loc = if i < 4 then Loc_reg i else Loc_mem (Cpu.sp cpu + (4 * (i - 4)), 4) in
    (v, loc)
  in
  let va_ptr = ref (match style with `Va_list p -> p | _ -> 0) in
  let next_va () =
    let p = !va_ptr in
    va_ptr := p + 4;
    (Memory.read_u32 mem p, Loc_mem (p, 4))
  in
  let jv_base = match style with `Jvalue_array p -> p | _ -> 0 in
  let jv_index = ref 0 in
  let next_jv ~wide =
    let p = jv_base + (!jv_index * 8) in
    incr jv_index;
    if wide then
      ((Memory.read_u32 mem p, Memory.read_u32 mem (p + 4)), Loc_mem (p, 8))
    else ((Memory.read_u32 mem p, 0), Loc_mem (p, 4))
  in
  let next ~wide =
    match style with
    | `Varargs ->
      let lo, loc1 = next_reg_slot () in
      if wide then
        let hi, _loc2 = next_reg_slot () in
        ((lo, hi), loc1)
      else ((lo, 0), loc1)
    | `Va_list _ ->
      let lo, loc1 = next_va () in
      if wide then
        let hi, _ = next_va () in
        ((lo, hi), loc1)
      else ((lo, 0), loc1)
    | `Jvalue_array _ -> next_jv ~wide
  in
  List.iter
    (fun ty ->
      let wide = ty = 'J' || ty = 'D' in
      let (lo, hi), loc = next ~wide in
      let v = value_of_raw d ty ~r0:lo ~r1:hi in
      let t = query_taint d loc in
      let t =
        match ty with
        | 'L' -> (
          Taint.union t
            (match Indirect_ref.resolve d.d_irefs lo with
             | Some _ -> query_taint d (Loc_iref lo)
             | None -> Taint.clear))
        | _ -> t
      in
      Arg_pool.push d.d_arg_pool (v, t))
    params

(* dvmCallMethod* handler: decode irefs, build the frame, hand to
   dvmInterpret.  [style]'s data was captured by the Call*Method* wrapper
   before it delegated here (it lives in pending_interp). *)
let run_dvm_interpret d _cpu _mem =
  match d.pending_interp with
  | None -> raise (Vm.Dvm_error "dvmInterpret without a pending frame")
  | Some (args, jm) ->
    d.pending_interp <- None;
    let result = Interp.invoke d.d_vm jm args in
    d.d_vm.Vm.ret <- result

let resolve_virtual d jm receiver =
  if jm.Classes.m_static then jm
  else
    match receiver with
    | Dvalue.Obj id -> (
      match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
      | Heap.Instance { cls; _ } -> (
        try Vm.find_method d.d_vm cls jm.Classes.m_name with Vm.Dvm_error _ -> jm)
      | Heap.String _ | Heap.Array _ -> jm)
    | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _
      ->
      jm

(* Where a Call*Method or NewObject variant's Java arguments come from. *)
let args_style cpu mem : J.style -> _ = function
  | J.Varargs -> `Varargs
  | J.Va_list -> `Va_list (arg cpu mem 3)
  | J.Jvalue_array -> `Jvalue_array (arg cpu mem 3)

(* Shared implementation of every Call<Type>Method{,V,A} entry (Table II). *)
let run_call_java d style static_ (ret : J.jtype) cpu mem =
  d.d_vm.Vm.counters.Vm.jni_env_calls <-
    d.d_vm.Vm.counters.Vm.jni_env_calls + 1;
  let mid = arg cpu mem 2 in
  let jm =
    match Hashtbl.find_opt d.method_handles mid with
    | Some m -> m
    | None -> raise (Vm.Dvm_error (Printf.sprintf "bad jmethodID 0x%x" mid))
  in
  let params = Classes.shorty_params jm.Classes.m_shorty in
  let receiver_iref = arg cpu mem 1 in
  Arg_pool.reset d.d_arg_pool;
  if not static_ then begin
    let this_v = value_of_iref d receiver_iref in
    let this_t = query_taint d (Loc_iref receiver_iref) in
    Arg_pool.push d.d_arg_pool (this_v, this_t)
  end;
  read_java_args d cpu mem ~style:(args_style cpu mem style) ~first_vararg:3 ~params;
  let full_args = Arg_pool.emit d.d_arg_pool in
  let jm =
    if static_ then jm
    else resolve_virtual d jm (fst full_args.(0))
  in
  (* Fig. 5: the wrapper jumps into dvmCallMethod*, which scans arguments
     (dvmDecodeIndirectRef per object) and then enters dvmInterpret. *)
  let self_addr =
    match Machine.find_host_fn d.d_machine (Cpu.pc cpu) with
    | Some hf -> hf.Machine.hf_addr
    | None -> Layout.libdvm_base
  in
  let inner =
    match style with
    | J.Varargs -> "dvmCallMethod"
    | J.Va_list -> "dvmCallMethodV"
    | J.Jvalue_array -> "dvmCallMethodA"
  in
  d.pending_interp <- Some (full_args, jm);
  let o = d.d_obs in
  let observed = o.Ndroid_obs.Ring.on in
  if observed then begin
    let crossing_taint =
      Array.fold_left
        (fun acc (_, t) -> acc lor Taint.to_bits t)
        0 full_args
    in
    Ndroid_obs.Ring.emit_jni_begin o ~name:(Classes.qualified_name jm)
      ~direction:"native->java" ~taint:crossing_taint
  end;
  Machine.call_host d.d_machine ~from_:self_addr inner;
  if observed then
    Ndroid_obs.Ring.emit_jni_end o ~name:(Classes.qualified_name jm)
      ~direction:"native->java"
      ~taint:(Taint.to_bits (snd d.d_vm.Vm.ret));
  (* result (value and taint) is in vm.ret; convert to raw for the caller *)
  let v, _t = d.d_vm.Vm.ret in
  match ret with
  | J.Void -> Cpu.set_reg cpu 0 0
  | J.Object ->
    Cpu.set_reg cpu 0 (match v with Dvalue.Null -> 0 | _ -> iref_of_value d v)
  | J.Long ->
    let n = Dvalue.as_long v in
    Cpu.set_reg cpu 0 (Int64.to_int (Int64.logand n 0xFFFFFFFFL));
    Cpu.set_reg cpu 1 (Int64.to_int (Int64.shift_right_logical n 32))
  | J.Double ->
    let bits = Int64.bits_of_float (Dvalue.as_double v) in
    Cpu.set_reg cpu 0 (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    Cpu.set_reg cpu 1 (Int64.to_int (Int64.shift_right_logical bits 32))
  | J.Float ->
    Cpu.set_reg cpu 0 (Int32.to_int (Int32.bits_of_float (Dvalue.as_float v)) land mask32)
  | J.Boolean | J.Byte | J.Char | J.Short | J.Int ->
    Cpu.set_reg cpu 0 (Int32.to_int (Dvalue.as_int v) land mask32)

(* dvmCallMethod* body: emits the dvmDecodeIndirectRef scans, then enters
   the interpreter. *)
let run_dvm_call_method name d cpu mem =
  ignore mem;
  (match d.pending_interp with
   | Some (args, _) ->
     Array.iter
       (fun (v, _) ->
         match v with
         | Dvalue.Obj _ ->
           Machine.call_host d.d_machine
             ~from_:(Machine.host_fn_addr d.d_machine name)
             "dvmDecodeIndirectRef"
         | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _
         | Dvalue.Double _ ->
           ())
       args
   | None -> ());
  Machine.call_host d.d_machine ~from_:(Machine.host_fn_addr d.d_machine name)
    "dvmInterpret";
  ignore cpu

(* ---------------- JNI env: a handler per catalogue row ---------------- *)

(* A NOF delegates to its MAF (Table III), then hands native code an
   indirect reference to the object the MAF allocated. *)
let alloc_iref d ~self ~maf what cpu =
  Machine.call_host d.d_machine ~from_:self maf;
  match Heap.find_by_addr d.d_vm.Vm.heap (Cpu.reg cpu 0) with
  | Some o -> Cpu.set_reg cpu 0 (Indirect_ref.add d.d_irefs ~obj_id:o.Heap.id)
  | None -> raise (Vm.Dvm_error (what ^ ": allocation lost"))

let get_method_id d cpu mem =
  let h = arg cpu mem 1 in
  let name = cstring d (arg cpu mem 2) in
  match class_of_handle d h with
  | Some cls ->
    let m = Vm.find_method d.d_vm cls name in
    Cpu.set_reg cpu 0 (method_handle d m)
  | None -> raise (Vm.Dvm_error (Printf.sprintf "bad jclass 0x%x" h))

let get_field_id static d cpu mem =
  let h = arg cpu mem 1 in
  let name = cstring d (arg cpu mem 2) in
  match class_of_handle d h with
  | Some cls -> Cpu.set_reg cpu 0 (field_handle d cls name static)
  | None -> raise (Vm.Dvm_error (Printf.sprintf "bad jclass 0x%x" h))

let new_object style d cpu mem =
  let self =
    match Machine.find_host_fn d.d_machine (Cpu.pc cpu) with
    | Some hf -> hf.Machine.hf_addr
    | None -> Layout.libdvm_base
  in
  Machine.call_host d.d_machine ~from_:self "dvmAllocObject";
  let addr = Cpu.reg cpu 0 in
  let o =
    match Heap.find_by_addr d.d_vm.Vm.heap addr with
    | Some o -> o
    | None -> raise (Vm.Dvm_error "NewObject: allocation lost")
  in
  let iref = Indirect_ref.add d.d_irefs ~obj_id:o.Heap.id in
  (* run the constructor with the fresh object as receiver *)
  let mid = arg cpu mem 2 in
  (match Hashtbl.find_opt d.method_handles mid with
   | Some ctor ->
     let params = Classes.shorty_params ctor.Classes.m_shorty in
     Arg_pool.reset d.d_arg_pool;
     Arg_pool.push d.d_arg_pool (Dvalue.Obj o.Heap.id, Taint.clear);
     read_java_args d cpu mem ~style:(args_style cpu mem style) ~first_vararg:3
       ~params;
     let full = Arg_pool.emit d.d_arg_pool in
     d.pending_interp <- Some (full, ctor);
     Machine.call_host d.d_machine ~from_:self "dvmInterpret"
   | None -> ());
  Cpu.set_reg cpu 0 iref

let string_length d cpu mem =
  match string_obj d (arg cpu mem 1) with
  | Some (_, s) -> Cpu.set_reg cpu 0 (String.length s)
  | None -> Cpu.set_reg cpu 0 0

let release_chars d cpu mem =
  A.Native_heap.free d.d_nheap (arg cpu mem 2);
  ignore cpu

let array_of_iref d iref =
  match value_of_iref d iref with
  | Dvalue.Obj id -> (
    match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
    | Heap.Array { elems; _ } -> Some (id, elems)
    | Heap.String _ | Heap.Instance _ -> None)
  | _ -> None

let get_array_elements width d cpu mem =
  match array_of_iref d (arg cpu mem 1) with
  | Some (_, elems) ->
    let buf = A.Native_heap.malloc d.d_nheap (Array.length elems * width) in
    Array.iteri
      (fun i v ->
        Memory.write_u32 mem (buf + (i * width)) (Int32.to_int (Dvalue.as_int v) land mask32))
      elems;
    Cpu.set_reg cpu 0 buf
  | None -> Cpu.set_reg cpu 0 0

let release_array_elements width d cpu mem =
  let mode = arg cpu mem 3 in
  (match array_of_iref d (arg cpu mem 1) with
   | Some (_, elems) when mode <> 2 (* JNI_ABORT *) ->
     let buf = arg cpu mem 2 in
     Array.iteri
       (fun i _ ->
         elems.(i) <- Dvalue.Int (Int32.of_int (Memory.read_u32 mem (buf + (i * width)))))
       elems
   | Some _ | None -> ());
  A.Native_heap.free d.d_nheap (arg cpu mem 2)

let array_region ~set width d cpu mem =
  match array_of_iref d (arg cpu mem 1) with
  | Some (_, elems) ->
    let start = arg cpu mem 2 and len = arg cpu mem 3 and buf = arg cpu mem 4 in
    for i = 0 to len - 1 do
      if start + i >= 0 && start + i < Array.length elems then begin
        if set then
          elems.(start + i) <-
            Dvalue.Int (Int32.of_int (Memory.read_u32 mem (buf + (i * width))))
        else
          Memory.write_u32 mem (buf + (i * width))
            (Int32.to_int (Dvalue.as_int elems.(start + i)) land mask32)
      end
    done
  | None -> ()

(* Table IV: the field handle records whether the field is static *)
let find_field d cpu mem =
  let fid = arg cpu mem 2 in
  match Hashtbl.find_opt d.field_handles fid with
  | Some f -> f
  | None -> raise (Vm.Dvm_error (Printf.sprintf "bad jfieldID 0x%x" fid))

let get_field (ty : J.jtype) d cpu mem =
  let cls, fld, static = find_field d cpu mem in
  let v =
    if static then fst !(Vm.static_ref d.d_vm cls fld)
    else
      match value_of_iref d (arg cpu mem 1) with
      | Dvalue.Obj id -> (
        match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
        | Heap.Instance { cls = real_cls; values; _ } ->
          values.(Vm.field_index d.d_vm real_cls fld)
        | Heap.String _ | Heap.Array _ -> Dvalue.zero)
      | _ -> Dvalue.zero
  in
  match ty with
  | J.Object -> Cpu.set_reg cpu 0 (match v with Dvalue.Null -> 0 | _ -> iref_of_value d v)
  | _ -> Cpu.set_reg cpu 0 (Int32.to_int (Dvalue.as_int v) land mask32)

let set_field (ty : J.jtype) d cpu mem =
  let raw = arg cpu mem 3 in
  let value =
    match ty with J.Object -> value_of_iref d raw | _ -> Dvalue.Int (Int32.of_int raw)
  in
  let cls, fld, static = find_field d cpu mem in
  if static then begin
    let cell = Vm.static_ref d.d_vm cls fld in
    cell := (value, snd !cell)
  end
  else
    match value_of_iref d (arg cpu mem 1) with
    | Dvalue.Obj id -> (
      match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
      | Heap.Instance { cls = real_cls; values; _ } ->
        values.(Vm.field_index d.d_vm real_cls fld) <- value
      | Heap.String _ | Heap.Array _ -> ())
    | _ -> ()

let throw_new d cpu mem =
  let self = Machine.host_fn_addr d.d_machine "ThrowNew" in
  (* initException reads r1 = jclass, r2 = message char* — already set *)
  let msg_addr = arg cpu mem 2 in
  Machine.call_host d.d_machine ~from_:self "initException";
  let exn_addr = Cpu.reg cpu 0 in
  (match Heap.find_by_addr d.d_vm.Vm.heap exn_addr with
   | Some o ->
     let taint =
       query_taint d (Loc_mem (msg_addr, String.length (cstring d msg_addr) + 1))
     in
     o.Heap.taint <- Taint.union o.Heap.taint taint;
     (* propagate onto the message string object too *)
     (match o.Heap.kind with
      | Heap.Instance { values; taints; _ } ->
        (match values.(0) with
         | Dvalue.Obj sid -> (Heap.get d.d_vm.Vm.heap sid).Heap.taint <- taint
         | _ -> ());
        taints.(0) <- Taint.union taints.(0) taint
      | Heap.String _ | Heap.Array _ -> ());
     d.pending_throw <- Some (Dvalue.Obj o.Heap.id, taint)
   | None -> ());
  Cpu.set_reg cpu 0 0

let init_exception d cpu mem =
  (* r1 = class handle, r2 = message char* *)
  let cls =
    match class_of_handle d (arg cpu mem 1) with
    | Some c -> c
    | None -> "Ljava/lang/Exception;"
  in
  let self = Machine.host_fn_addr d.d_machine "initException" in
  (* create the message string through the normal allocation path *)
  Cpu.set_reg cpu 1 (arg cpu mem 2);
  Machine.call_host d.d_machine ~from_:self "dvmCreateStringFromCstr";
  let str_addr = Cpu.reg cpu 0 in
  let msg_obj =
    match Heap.find_by_addr d.d_vm.Vm.heap str_addr with
    | Some o -> o
    | None -> raise (Vm.Dvm_error "initException: lost message string")
  in
  let exn_obj =
    Heap.alloc_instance d.d_vm.Vm.heap cls
      (max 1 (try Vm.instance_size d.d_vm cls with Vm.Dvm_error _ -> 1))
  in
  (match exn_obj.Heap.kind with
   | Heap.Instance { values; taints; _ } ->
     values.(0) <- Dvalue.Obj msg_obj.Heap.id;
     taints.(0) <- msg_obj.Heap.taint
   | Heap.String _ | Heap.Array _ -> ());
  Cpu.set_reg cpu 0 exn_obj.Heap.addr

let register_natives d cpu mem =
  (* (env, jclass, JNINativeMethod* {name, sig, fnPtr} x n, n) *)
  match class_of_handle d (arg cpu mem 1) with
  | None -> Cpu.set_reg cpu 0 (0xFFFFFFFF (* JNI_ERR *))
  | Some cls ->
    let table = arg cpu mem 2 and n = arg cpu mem 3 in
    for i = 0 to n - 1 do
      let entry = table + (12 * i) in
      let name = Memory.read_cstring mem (Memory.read_u32 mem entry) in
      let fn_ptr = Memory.read_u32 mem (entry + 8) in
      Hashtbl.replace d.registered_natives (cls, name) fn_ptr
    done;
    Cpu.set_reg cpu 0 0

(* The handler a libdvm row mounts: by shape for the generated families,
   by name for the rest. *)
let jni_handler (r : J.row) : t -> Cpu.t -> Memory.t -> unit =
  match r.J.shape with
  | J.Call_method { dispatch; style; ret } ->
    fun d cpu mem -> run_call_java d style (dispatch = J.Static) ret cpu mem
  | J.Field { set = false; ty; _ } -> get_field ty
  | J.Field { set = true; ty; _ } -> set_field ty
  | J.New_array _ ->
    fun d cpu _mem ->
      alloc_iref d ~self:(Machine.host_fn_addr d.d_machine r.J.name)
        ~maf:"dvmAllocPrimitiveArray" "NewArray" cpu
  | J.Array_elements { release = false; ty } -> get_array_elements (J.width ty)
  | J.Array_elements { release = true; ty } -> release_array_elements (J.width ty)
  | J.Array_region { set; ty } -> array_region ~set (J.width ty)
  | J.Single | J.Math _ -> (
    match r.J.name with
    (* internals: the MAF column of Table III and the bridge machinery *)
    | "dvmCallJNIMethod" -> run_call_bridge
    | "dvmInterpret" -> run_dvm_interpret
    | "dvmCallMethod" | "dvmCallMethodV" | "dvmCallMethodA" -> run_dvm_call_method r.J.name
    | "dvmDecodeIndirectRef" -> fun _d _cpu _mem -> ()
    | "dvmCreateStringFromCstr" ->
      fun d cpu mem ->
        (* r1 = char* ; returns the real object address in r0 (Fig. 6) *)
        let s = Memory.read_cstring mem (arg cpu mem 1) in
        let o = Heap.alloc_string d.d_vm.Vm.heap s in
        Cpu.set_reg cpu 0 o.Heap.addr
    | "dvmCreateStringFromUnicode" ->
      fun d cpu mem ->
        let ptr = arg cpu mem 1 and len = arg cpu mem 2 in
        let b = Buffer.create len in
        for i = 0 to len - 1 do
          Buffer.add_char b (Char.chr (Memory.read_u16 mem (ptr + (2 * i)) land 0xFF))
        done;
        let o = Heap.alloc_string d.d_vm.Vm.heap (Buffer.contents b) in
        Cpu.set_reg cpu 0 o.Heap.addr
    | "dvmAllocObject" ->
      fun d cpu _mem ->
        let h = Cpu.reg cpu 1 in
        (match class_of_handle d h with
         | Some cls ->
           let o = Heap.alloc_instance d.d_vm.Vm.heap cls (Vm.instance_size d.d_vm cls) in
           Cpu.set_reg cpu 0 o.Heap.addr
         | None -> raise (Vm.Dvm_error (Printf.sprintf "bad jclass 0x%x" h)))
    | "dvmAllocPrimitiveArray" ->
      fun d cpu _mem ->
        let o = Heap.alloc_array d.d_vm.Vm.heap "prim" (Cpu.reg cpu 1) in
        Cpu.set_reg cpu 0 o.Heap.addr
    | "dvmAllocArrayByClass" ->
      fun d cpu _mem ->
        let o = Heap.alloc_array d.d_vm.Vm.heap "Ljava/lang/Object;" (Cpu.reg cpu 2) in
        Cpu.set_reg cpu 0 o.Heap.addr
    | "initException" -> init_exception
    (* class / method / field lookup *)
    | "FindClass" ->
      fun d cpu mem ->
        let norm = normalize_class_name (cstring d (arg cpu mem 1)) in
        ignore (Vm.find_class d.d_vm norm);
        Cpu.set_reg cpu 0 (class_handle d norm)
    | "GetObjectClass" ->
      fun d cpu mem ->
        (match value_of_iref d (arg cpu mem 1) with
         | Dvalue.Obj id ->
           let cls =
             match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
             | Heap.Instance { cls; _ } -> cls
             | Heap.String _ -> "Ljava/lang/String;"
             | Heap.Array _ -> "Ljava/lang/Object;"
           in
           Cpu.set_reg cpu 0 (class_handle d cls)
         | _ -> Cpu.set_reg cpu 0 0)
    | "GetMethodID" | "GetStaticMethodID" -> get_method_id
    | "GetFieldID" -> get_field_id false
    | "GetStaticFieldID" -> get_field_id true
    (* object creation: the NOF column of Table III *)
    | "NewObject" -> new_object J.Varargs
    | "NewObjectV" -> new_object J.Va_list
    | "NewObjectA" -> new_object J.Jvalue_array
    | "NewStringUTF" ->
      (* r1 already holds the char*; delegate to the MAF *)
      fun d cpu _mem ->
        alloc_iref d ~self:(Machine.host_fn_addr d.d_machine "NewStringUTF")
          ~maf:"dvmCreateStringFromCstr" "NewStringUTF" cpu
    | "NewString" ->
      fun d cpu _mem ->
        alloc_iref d ~self:(Machine.host_fn_addr d.d_machine "NewString")
          ~maf:"dvmCreateStringFromUnicode" "NewString" cpu
    | "NewObjectArray" ->
      fun d cpu _mem ->
        alloc_iref d ~self:(Machine.host_fn_addr d.d_machine "NewObjectArray")
          ~maf:"dvmAllocArrayByClass" "NewObjectArray" cpu
    (* strings *)
    | "GetStringUTFChars" ->
      fun d cpu mem ->
        (match string_obj d (arg cpu mem 1) with
         | Some (_id, s) ->
           let buf = A.Native_heap.malloc d.d_nheap (String.length s + 1) in
           Memory.write_cstring mem buf s;
           let is_copy = arg cpu mem 2 in
           if is_copy <> 0 then Memory.write_u8 mem is_copy 1;
           Cpu.set_reg cpu 0 buf
         | None -> Cpu.set_reg cpu 0 0)
    | "GetStringChars" ->
      fun d cpu mem ->
        (match string_obj d (arg cpu mem 1) with
         | Some (_, s) ->
           let buf = A.Native_heap.malloc d.d_nheap ((String.length s + 1) * 2) in
           String.iteri (fun i c -> Memory.write_u16 mem (buf + (2 * i)) (Char.code c)) s;
           Memory.write_u16 mem (buf + (2 * String.length s)) 0;
           Cpu.set_reg cpu 0 buf
         | None -> Cpu.set_reg cpu 0 0)
    | "ReleaseStringUTFChars" | "ReleaseStringChars" -> release_chars
    | "GetStringUTFLength" | "GetStringLength" -> string_length
    | "GetStringUTFRegion" ->
      fun d cpu mem ->
        (match string_obj d (arg cpu mem 1) with
         | Some (_, s) ->
           let start = arg cpu mem 2 and len = arg cpu mem 3 and buf = arg cpu mem 4 in
           let start = max 0 start in
           let len = min len (String.length s - start) in
           if len > 0 then Memory.write_string mem buf (String.sub s start len);
           Memory.write_u8 mem (buf + max 0 len) 0
         | None -> ())
    | "GetStringRegion" ->
      fun d cpu mem ->
        (match string_obj d (arg cpu mem 1) with
         | Some (_, s) ->
           let start = arg cpu mem 2 and len = arg cpu mem 3 and buf = arg cpu mem 4 in
           for i = 0 to len - 1 do
             if start + i < String.length s then
               Memory.write_u16 mem (buf + (2 * i)) (Char.code s.[start + i])
           done
         | None -> ())
    (* arrays *)
    | "GetArrayLength" ->
      fun d cpu mem ->
        (match array_of_iref d (arg cpu mem 1) with
         | Some (_, elems) -> Cpu.set_reg cpu 0 (Array.length elems)
         | None -> Cpu.set_reg cpu 0 0)
    | "GetObjectArrayElement" ->
      fun d cpu mem ->
        (match array_of_iref d (arg cpu mem 1) with
         | Some (_, elems) ->
           let idx = arg cpu mem 2 in
           if idx >= 0 && idx < Array.length elems then
             Cpu.set_reg cpu 0
               (match elems.(idx) with Dvalue.Obj _ as v -> iref_of_value d v | _ -> 0)
           else Cpu.set_reg cpu 0 0
         | None -> Cpu.set_reg cpu 0 0)
    | "SetObjectArrayElement" ->
      fun d cpu mem ->
        (match array_of_iref d (arg cpu mem 1) with
         | Some (_, elems) ->
           let idx = arg cpu mem 2 in
           if idx >= 0 && idx < Array.length elems then
             elems.(idx) <- value_of_iref d (arg cpu mem 3)
         | None -> ())
    (* exceptions *)
    | "ThrowNew" -> throw_new
    | "Throw" ->
      fun d cpu mem ->
        let iref = arg cpu mem 1 in
        let v = value_of_iref d iref in
        d.pending_throw <- Some (v, query_taint d (Loc_iref iref));
        Cpu.set_reg cpu 0 0
    | "ExceptionOccurred" ->
      fun d cpu _mem ->
        Cpu.set_reg cpu 0
          (match d.pending_throw with
           | Some (v, _) -> (match v with Dvalue.Null -> 0 | _ -> iref_of_value d v)
           | None -> 0)
    | "ExceptionClear" -> fun d _cpu _mem -> d.pending_throw <- None
    (* registration and references *)
    | "RegisterNatives" -> register_natives
    | "UnregisterNatives" ->
      fun d cpu mem ->
        (match class_of_handle d (arg cpu mem 1) with
         | Some cls ->
           Hashtbl.iter
             (fun (c, m) _ -> if c = cls then Hashtbl.remove d.registered_natives (c, m))
             (Hashtbl.copy d.registered_natives)
         | None -> ());
        Cpu.set_reg cpu 0 0
    | "NewGlobalRef" | "NewLocalRef" -> fun _d cpu mem -> Cpu.set_reg cpu 0 (arg cpu mem 1)
    | "DeleteGlobalRef" | "DeleteLocalRef" ->
      fun d cpu mem ->
        Indirect_ref.delete d.d_irefs (arg cpu mem 1);
        ignore cpu
    | name -> invalid_arg ("no libdvm handler for " ^ name))

(* ---------------- the host-function layout ---------------- *)

(* Every device mounts the same libdvm, libc and libm functions at the
   same addresses, so the layout is built once, when the module is
   initialised (before any domain can exist), and shared read-only.  A
   device binds it to itself in [create]: no per-device tables, names or
   closures.  Each library's catalogue rows are placed in order, 0x40
   apart. *)
let host_layout, rows_by_addr =
  let place base rows =
    List.mapi (fun i (row, run) -> (row, base + (0x40 * i), run)) rows
  in
  let entries =
    place (Layout.libdvm_base + 0x1000)
      (List.map (fun r -> (r, jni_handler r)) J.functions)
    @ place (Layout.libc_base + 0x100)
        (List.map
           (fun (r, run) -> (r, fun d cpu mem -> run d.d_libc cpu mem))
           A.Libc_model.functions)
    @ place (Layout.libm_base + 0x100)
        (List.map (fun (r, run) -> (r, fun (_ : t) cpu mem -> run cpu mem))
           A.Libm_model.functions)
  in
  let by_addr = Hashtbl.create 256 in
  List.iter (fun ((r : J.row), addr, _) -> Hashtbl.add by_addr addr r) entries;
  ( Machine.host_layout
      (List.map (fun ((r : J.row), addr, run) -> (J.lib_name r.J.lib, r.J.name, addr, run))
         entries),
    by_addr )

let host_fn_addr name = Machine.layout_addr host_layout name
(* a Thumb call target carries bit 0 *)
let host_row addr = Hashtbl.find_opt rows_by_addr (addr land lnot 1)

(* ---------------- construction ---------------- *)

let install_system_class d =
  let sys = "Ljava/lang/System;" in
  Vm.define_class d.d_vm
    (Jbuilder.class_ ~name:sys ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:sys ~name:"loadLibrary" ~shorty:"VL"
           "System.loadLibrary";
         Jbuilder.intrinsic_method ~cls:sys ~name:"load" ~shorty:"VL" "System.load" ]);
  let loader vm (args : Vm.tval array) =
    let name = Vm.string_of_value vm (fst args.(0)) in
    (* System.load takes a path; strip directories and the lib/so fix *)
    let base = Filename.basename name in
    let base =
      if String.length base > 3 && String.sub base 0 3 = "lib" then
        String.sub base 3 (String.length base - 3)
      else base
    in
    let base = Filename.remove_extension base in
    (match
       ( Hashtbl.mem d.available_libs name,
         Hashtbl.mem d.available_libs base )
     with
     | true, _ -> load_library d name
     | _, true -> load_library d base
     | false, false ->
       raise (Vm.Dvm_error (Printf.sprintf "UnsatisfiedLinkError: %s" name)));
    (Dvalue.zero, Taint.clear)
  in
  Vm.register_intrinsic d.d_vm "System.loadLibrary" loader;
  Vm.register_intrinsic d.d_vm "System.load" loader

(* A store into a watched image dirties the library that owns it.  A loop
   storing into its library's own data words lands here on every store, so
   the walk allocates nothing and passes over libraries already dirty. *)
let rec mark_dirty_owner addr = function
  | [] -> ()
  | l :: rest ->
    if (not (Summary.dirty l)) && Summary.owns l addr then Summary.mark_dirty l;
    mark_dirty_owner addr rest

let create ?(profile = A.Device_profile.default) () =
  let vm = Vm.create () in
  let machine = Machine.create () in
  let fs = A.Filesystem.create () in
  let net = A.Network.create () in
  let nheap = A.Native_heap.create () in
  let monitor = A.Sink_monitor.create () in
  let d =
    { d_vm = vm;
      d_machine = machine;
      d_fs = fs;
      d_net = net;
      d_nheap = nheap;
      d_monitor = monitor;
      d_irefs = Indirect_ref.create ();
      d_libc = A.Libc_model.create_ctx fs net nheap;
      available_libs = Hashtbl.create 8;
      loaded_libs = Hashtbl.create 8;
      symbols = Hashtbl.create 64;
      registered_natives = Hashtbl.create 8;
      dl_handles = Hashtbl.create 8;
      next_dl_handle = 0x60000001;
      class_handles = Hashtbl.create 32;
      class_handle_of = Hashtbl.create 32;
      next_class_handle = 1;
      method_handles = Hashtbl.create 32;
      next_method_handle = 1;
      field_handles = Hashtbl.create 32;
      next_field_handle = 1;
      cur_call = None;
      bridge_result = (Dvalue.zero, Taint.clear);
      pending_interp = None;
      pending_throw = None;
      ret_policy = ref (fun _ ~r0:_ ~r1:_ -> Taint.clear);
      taint_source = ref (fun _ -> Taint.clear);
      d_slot_pool = Arg_pool.create (0, Taint.clear);
      d_arg_pool = Arg_pool.create (Dvalue.zero, Taint.clear);
      d_obs = Ndroid_obs.Ring.disabled;
      lib_summaries = [];
      use_summaries = false;
      summary_taint = (fun _ _ -> ());
      summaries_applied = 0;
      summaries_rejected = 0 }
  in
  (* runtime writes into a loaded image invalidate its summaries *)
  Machine.on_code_write machine (fun addr -> mark_dirty_owner addr d.lib_summaries);
  A.Framework.install vm;
  A.Sources.install vm profile;
  A.Sinks.install vm net fs monitor;
  install_system_class d;
  Machine.mount_layout machine host_layout d;
  vm.Vm.native_dispatch <- Some (fun vm jm args -> native_dispatch d vm jm args);
  A.Libc_model.set_dl d.d_libc ~dl_open:(dl_open d) ~dl_sym:(dl_sym d);
  d

let install_classes d classes = List.iter (Vm.define_class d.d_vm) classes

let field_cell d ~obj_iref ~fid =
  match Hashtbl.find_opt d.field_handles fid with
  | None -> None
  | Some (cls, fld, true) -> Some (`Static (Vm.static_ref d.d_vm cls fld))
  | Some (_, fld, false) -> (
    match value_of_iref d obj_iref with
    | Dvalue.Obj id -> (
      match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
      | Heap.Instance { cls = real_cls; taints; _ } ->
        Some (`Instance (taints, Vm.field_index d.d_vm real_cls fld))
      | Heap.String _ | Heap.Array _ -> None)
    | _ -> None)

let field_taint d ~obj_iref ~fid =
  match field_cell d ~obj_iref ~fid with
  | Some (`Static cell) -> snd !cell
  | Some (`Instance (taints, idx)) -> taints.(idx)
  | None -> Taint.clear

let add_field_taint d ~obj_iref ~fid taint =
  match field_cell d ~obj_iref ~fid with
  | Some (`Static cell) ->
    let v, t = !cell in
    cell := (v, Taint.union t taint)
  | Some (`Instance (taints, idx)) -> taints.(idx) <- Taint.union taints.(idx) taint
  | None -> ()

let object_taint d ~iref =
  match Indirect_ref.resolve d.d_irefs iref with
  | Some id -> (
    match Heap.get d.d_vm.Vm.heap id with
    | o -> o.Heap.taint
    | exception Not_found -> Taint.clear)
  | None -> Taint.clear

let add_object_taint d ~iref taint =
  match Indirect_ref.resolve d.d_irefs iref with
  | Some id -> (
    match Heap.get d.d_vm.Vm.heap id with
    | o -> o.Heap.taint <- Taint.union o.Heap.taint taint
    | exception Not_found -> ())
  | None -> ()

let object_addr d ~iref =
  match Indirect_ref.resolve d.d_irefs iref with
  | Some id -> (
    match Heap.get d.d_vm.Vm.heap id with
    | o -> Some o.Heap.addr
    | exception Not_found -> None)
  | None -> None

let array_length d ~iref =
  match Indirect_ref.resolve d.d_irefs iref with
  | Some id -> (
    match (Heap.get d.d_vm.Vm.heap id).Heap.kind with
    | Heap.Array { elems; _ } -> Some (Array.length elems)
    | Heap.String s -> Some (String.length s)
    | Heap.Instance _ -> None
    | exception Not_found -> None)
  | None -> None

let run d cls name args = Interp.invoke_by_name d.d_vm cls name args

let gc d =
  let o = d.d_obs in
  Ndroid_obs.Ring.emit_gc_begin o;
  Heap.compact d.d_vm.Vm.heap;
  Ndroid_obs.Ring.emit_gc_end o;
  if o.Ndroid_obs.Ring.on then
    Ndroid_obs.Metrics.incr
      (Ndroid_obs.Metrics.counter (Ndroid_obs.Ring.metrics o) "gcs")
