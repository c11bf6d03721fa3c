(* Dynamic execution of synthetic market apps.

   A market subject is a generator model, but {!Ndroid_corpus.Apk}
   materializes a real Main class whose [onCreate] performs every method
   reference with a genuine def-use chain from source results to sink
   arguments — so the app can be *run*, not just scanned.  This module
   boots a device, grafts intrinsic stubs for the framework traffic the
   generator emits, provides the app's native library, and drives
   [onCreate] under full NDroid (optionally gated to a static focus
   set — the hybrid pipeline's focused dynamic pass). *)

module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Jbuilder = Ndroid_dalvik.Jbuilder
module Dvalue = Ndroid_dalvik.Dvalue
module Taint = Ndroid_taint.Taint
module App_model = Ndroid_corpus.App_model
module Apk = Ndroid_corpus.Apk
module Ndroid = Ndroid_core.Ndroid
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json

(* Framework methods the market generator references that the device's
   simulated framework does not already provide.  Stubs are merged with
   {!Vm.define_method}, so anything the framework *does* define wins. *)
let install_stubs device =
  let vm = Device.vm device in
  let intr = Vm.register_intrinsic vm in
  intr "Market.nop" (fun _ _ -> (Dvalue.zero, Taint.clear));
  (* value-returning stubs hand back their first argument with its taint,
     so they never cut a def-use chain the dex carries through them *)
  intr "Market.pass" (fun _ args ->
      if Array.length args > 0 then args.(0) else (Dvalue.zero, Taint.clear));
  let stub ~cls ~name ~shorty key =
    Vm.define_method vm ~cls
      (Jbuilder.intrinsic_method ~cls ~name ~shorty key)
  in
  stub ~cls:"Landroid/app/Activity;" ~name:"onCreate" ~shorty:"VL" "Market.nop";
  stub ~cls:"Landroid/util/Log;" ~name:"d" ~shorty:"ILL" "Market.nop";
  stub ~cls:"Landroid/content/Context;" ~name:"getSystemService" ~shorty:"LL"
    "Market.pass";
  stub ~cls:"Ljava/util/List;" ~name:"add" ~shorty:"ZL" "Market.nop";
  stub ~cls:"Landroid/view/View;" ~name:"setOnClickListener" ~shorty:"VL"
    "Market.nop";
  (* the generator calls append statically; the framework's instance
     StringBuilder.append has a different arity, so both coexist *)
  stub ~cls:"Ljava/lang/StringBuilder;" ~name:"append" ~shorty:"LL"
    "Market.pass"

let main_class_name package =
  Printf.sprintf "L%s/Main;"
    (String.map (fun c -> if c = '.' then '/' else c) package)

let run ?obs ?focus (model : App_model.t) =
  let device = Device.create () in
  install_stubs device;
  (match model.App_model.main_dex with
   | Some dex ->
     (* the generator can draw the same NativeN name twice; the VM (like
        a real class loader) rejects redefinition, so install each once *)
     let decls =
       List.sort_uniq compare dex.App_model.native_decl_classes
     in
     Device.install_classes device
       (Apk.main_class_of_dex model.App_model.package dex
       :: List.map Apk.native_decl_class decls)
   | None -> ());
  (* the dex's load call looks the library up by its undecorated name *)
  Device.provide_library device "native-lib" (Apk.native_lib ());
  let nd = Ndroid.attach ?obs ?focus device in
  (match model.App_model.main_dex with
   | Some _ -> (
     try
       ignore
         (Device.run device (main_class_name model.App_model.package)
            "onCreate" [||])
     with Vm.Java_throw _ | Vm.Dvm_error _ ->
       (* app crashed; whatever leaked before the crash still counts *)
       ())
   | None -> (* pure-native app: no Dalvik entry point to drive *) ());
  let stats = Ndroid.stats nd in
  let c = (Device.vm device).Vm.counters in
  let r =
    Ndroid_core.Report.to_report ~app_name:model.App_model.package nd
  in
  { r with
    Verdict.r_meta =
      r.Verdict.r_meta
      @ [ ("bytecodes", Json.Int c.Vm.bytecodes);
          ("invokes", Json.Int c.Vm.invokes);
          ("jni_crossings", Json.Int (c.Vm.native_calls + c.Vm.jni_env_calls));
          ("focused_methods", Json.Int stats.Ndroid.focused_methods);
          ("skipped_bytecodes", Json.Int stats.Ndroid.skipped_bytecodes) ] }
