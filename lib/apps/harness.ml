module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Taint = Ndroid_taint.Taint
module Ndroid = Ndroid_core.Ndroid
module Droidscope = Ndroid_core.Droidscope
module Taintdroid = Ndroid_taintdroid.Taintdroid
module A = Ndroid_android

type mode = Vanilla | Taintdroid_only | Droidscope_mode | Ndroid_full

let mode_name = function
  | Vanilla -> "vanilla"
  | Taintdroid_only -> "TaintDroid"
  | Droidscope_mode -> "DroidScope"
  | Ndroid_full -> "NDroid"

type app = {
  app_name : string;
  app_case : string;
  description : string;
  classes : Ndroid_dalvik.Classes.class_def list;
  build_libs : (string -> int option) -> (string * Ndroid_arm.Asm.program) list;
  entry : string * string;
  expected_sink : string;
}

type outcome = {
  mode : mode;
  detected : bool;
  leaks : A.Sink_monitor.leak list;
  flow_log : string list;
  stats : Ndroid.stats option;
  transmissions : A.Network.transmission list;
  file_writes : A.Filesystem.write_record list;
  device : Device.t;
  analysis : Ndroid.t option;
}

let boot app =
  let device = Device.create () in
  Device.install_classes device app.classes;
  List.iter
    (fun (name, prog) ->
      Device.provide_library device name prog;
      Device.load_library device name)
    (app.build_libs Device.host_fn_addr);
  device

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i =
    i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1))
  in
  loop 0

let run ?obs ?(superblocks = false) ?(summaries = false) ?focus mode app =
  let device = boot app in
  let ndroid =
    match mode with
    | Vanilla ->
      Taintdroid.vanilla device;
      None
    | Taintdroid_only ->
      Taintdroid.attach device;
      None
    | Droidscope_mode ->
      Droidscope.attach device;
      None
    | Ndroid_full ->
      Some
        (Ndroid.attach ~use_superblocks:superblocks ~use_summaries:summaries
           ?obs ?focus device)
  in
  let cls, entry = app.entry in
  (try ignore (Device.run device cls entry [||])
   with Vm.Java_throw _ -> () (* app crashed; analysis results still stand *));
  let leaks = A.Sink_monitor.leaks (Device.monitor device) in
  let detected =
    List.exists
      (fun l ->
        Taint.is_tainted l.A.Sink_monitor.taint
        && contains_substring l.A.Sink_monitor.sink app.expected_sink)
      leaks
  in
  { mode;
    detected;
    leaks;
    flow_log =
      (match ndroid with Some n -> Ndroid.log n | None -> []);
    stats = (match ndroid with Some n -> Some (Ndroid.stats n) | None -> None);
    transmissions = A.Network.transmissions (Device.net device);
    file_writes = A.Filesystem.writes (Device.fs device);
    device;
    analysis = ndroid }
