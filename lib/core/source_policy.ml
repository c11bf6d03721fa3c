module Taint = Ndroid_taint.Taint
module Device = Ndroid_runtime.Device
module Taint_engine = Ndroid_emulator.Taint_engine
module Classes = Ndroid_dalvik.Classes
module Cpu = Ndroid_arm.Cpu

type t = {
  method_address : int;
  t_r0 : Taint.t;
  t_r1 : Taint.t;
  t_r2 : Taint.t;
  t_r3 : Taint.t;
  stack_args_num : int;
  stack_args_taints : Taint.t array;
  method_shorty : string;
  access_flag : int;
  method_name : string;
  class_name : string;
}

let of_jni_call (jc : Device.jni_call) =
  let slot i =
    if i < Array.length jc.Device.jc_slots then snd jc.Device.jc_slots.(i)
    else Taint.clear
  in
  let n_slots = Array.length jc.Device.jc_slots in
  let stack_args_num = max 0 (n_slots - 4) in
  let jm = jc.Device.jc_method in
  { method_address = jc.Device.jc_addr;
    t_r0 = slot 0;
    t_r1 = slot 1;
    t_r2 = slot 2;
    t_r3 = slot 3;
    stack_args_num;
    stack_args_taints = Array.init stack_args_num (fun i -> slot (4 + i));
    method_shorty = jm.Classes.m_shorty;
    access_flag = (if jm.Classes.m_static then 0x8 else 0x0) lor 0x1;
    method_name = jm.Classes.m_name;
    class_name = jm.Classes.m_class }

let apply p engine cpu =
  Taint_engine.set_reg engine 0 p.t_r0;
  Taint_engine.set_reg engine 1 p.t_r1;
  Taint_engine.set_reg engine 2 p.t_r2;
  Taint_engine.set_reg engine 3 p.t_r3;
  let sp = Cpu.sp cpu in
  Array.iteri
    (fun i tag -> Taint_engine.set_mem engine (sp + (4 * i)) 4 tag)
    p.stack_args_taints

let any_tainted p =
  Taint.is_tainted p.t_r0 || Taint.is_tainted p.t_r1 || Taint.is_tainted p.t_r2
  || Taint.is_tainted p.t_r3
  || Array.exists Taint.is_tainted p.stack_args_taints

module Table = struct
  type policy = t

  (* Keyed by method address.  The registered-address bounds let the
     per-instruction lookup in the trace loop reject almost every address
     with two compares instead of a hashtable probe. *)
  type nonrec t = {
    tbl : (int, policy) Hashtbl.t;
    mutable lo : int;
    mutable hi : int;
  }

  let create () : t = { tbl = Hashtbl.create 32; lo = max_int; hi = min_int }

  let add table p =
    Hashtbl.replace table.tbl p.method_address p;
    if p.method_address < table.lo then table.lo <- p.method_address;
    if p.method_address > table.hi then table.hi <- p.method_address

  let find table addr =
    if addr < table.lo || addr > table.hi then None
    else Hashtbl.find_opt table.tbl addr

  let mem table addr =
    addr >= table.lo && addr <= table.hi && Hashtbl.mem table.tbl addr

  let size table = Hashtbl.length table.tbl
end

let pp ppf p =
  Format.fprintf ppf
    "SourcePolicy{%s->%s shorty=%s addr=0x%x tR0=%a tR1=%a tR2=%a tR3=%a stack=%d}"
    p.class_name p.method_name p.method_shorty p.method_address Taint.pp p.t_r0
    Taint.pp p.t_r1 Taint.pp p.t_r2 Taint.pp p.t_r3 p.stack_args_num
