module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Taint = Ndroid_taint.Taint

let return_policy (jc : Device.jni_call) ~r0:_ ~r1:_ =
  Array.fold_left (fun acc (_, t) -> Taint.union acc t) Taint.clear jc.Device.jc_args

let attach device =
  (Device.vm device).Vm.track_taint <- true;
  Device.jni_return_policy device := return_policy

let vanilla device =
  (Device.vm device).Vm.track_taint <- false;
  (Device.vm device).Vm.on_bytecode <- None;
  (Device.vm device).Vm.on_invoke <- None;
  Device.jni_return_policy device := (fun _ ~r0:_ ~r1:_ -> Taint.clear);
  Device.native_taint_source device := (fun _ -> Taint.clear);
  Ndroid_runtime.Device.Machine.clear_listeners (Device.machine device)
