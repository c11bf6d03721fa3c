(* Remaining corners: OS view rendering, dexdump, taint-engine reset,
   flow-log search, report formatting helpers. *)

module Os_view = Ndroid_emulator.Os_view
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Dexdump = Ndroid_dalvik.Dexdump
module Taint = Ndroid_taint.Taint
module Taint_engine = Ndroid_emulator.Taint_engine
module Ring = Ndroid_obs.Ring
module Event = Ndroid_obs.Event

let has_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else loop (i + 1)
  in
  nl = 0 || loop 0

let test_os_view_render () =
  let m = Machine.create () in
  let view = Os_view.reconstruct m in
  let rendered = Format.asprintf "%a" Os_view.pp view in
  Alcotest.(check bool) "lists the app process" true
    (has_substring rendered "com.ndroid.app");
  Alcotest.(check bool) "lists libdvm" true (has_substring rendered "libdvm.so");
  Alcotest.(check bool) "introspection work positive" true
    (Os_view.introspection_work view > 0)

let test_os_view_tracks_loaded_libs () =
  let m = Machine.create () in
  let prog =
    Ndroid_arm.Asm.assemble ~base:(Layout.app_lib_base + 0x2000)
      [ Ndroid_arm.Asm.I Ndroid_arm.Insn.bx_lr ]
  in
  Machine.load_program m prog;
  let view = Os_view.reconstruct m in
  Alcotest.(check bool) "new mapping visible" true
    (List.exists
       (fun r -> r.Os_view.r_base = Layout.app_lib_base + 0x2000)
       view.Os_view.memory_map)

let test_dexdump_rendering () =
  let rendered =
    Format.asprintf "%a" Dexdump.pp_classes
      Ndroid_apps.Cases.case2.Ndroid_apps.Harness.classes
  in
  Alcotest.(check bool) "class header" true
    (has_substring rendered "class Lcom/ndroid/demos/Case2;");
  Alcotest.(check bool) "native marker" true (has_substring rendered "native (exfil)");
  Alcotest.(check bool) "bytecode listing" true
    (has_substring rendered "invoke-static");
  let natives =
    Dexdump.native_methods Ndroid_apps.Cases.case2.Ndroid_apps.Harness.classes
  in
  Alcotest.(check int) "one native decl" 1 (List.length natives)

let test_taint_engine_reset () =
  let e = Taint_engine.create () in
  Taint_engine.set_reg e 3 Taint.imei;
  Taint_engine.set_sreg e 5 Taint.sms;
  Taint_engine.add_mem e 0x1000 16 Taint.contacts;
  Alcotest.(check bool) "dirty" true (Taint_engine.tainted_bytes e > 0);
  Taint_engine.reset e;
  Alcotest.(check bool) "regs clean" false (Taint_engine.any_reg_tainted e);
  Alcotest.(check int) "map clean" 0 (Taint_engine.tainted_bytes e);
  Alcotest.(check bool) "sregs clean" true (Taint.is_clear (Taint_engine.sreg e 5))

(* rendered flow-log lines of a ring that contain [needle] *)
let matching ring needle =
  Ring.fold
    (fun acc r ->
      match Event.render r with
      | Some line when has_substring line needle -> line :: acc
      | _ -> acc)
    [] ring

let test_flow_log_matching () =
  let log = Ring.create () in
  Ring.logf log "SourceHandler @0x%x" 0x4A000000;
  Ring.logf log "t(r2) := %a" Taint.pp Taint.contacts;
  Ring.emit_log log "unrelated";
  Alcotest.(check int) "count" 3 (Ring.lines log);
  Alcotest.(check int) "matching" 1
    (List.length (matching log "SourceHandler"));
  Ring.clear log;
  Alcotest.(check int) "cleared" 0 (Ring.lines log)

let test_report_helpers_empty_inputs () =
  (* a report over a fresh analysis renders without leaks or logs *)
  let device = Ndroid_runtime.Device.create () in
  let nd = Ndroid_core.Ndroid.attach device in
  let r = Ndroid_core.Report.generate ~app_name:"empty" nd in
  Alcotest.(check bool) "clean verdict" true
    (has_substring r "no tainted information flow reached a sink")

let suite =
  [ Alcotest.test_case "os view rendering" `Quick test_os_view_render;
    Alcotest.test_case "os view tracks loaded libs" `Quick
      test_os_view_tracks_loaded_libs;
    Alcotest.test_case "dexdump rendering" `Quick test_dexdump_rendering;
    Alcotest.test_case "taint engine reset" `Quick test_taint_engine_reset;
    Alcotest.test_case "flow log matching" `Quick test_flow_log_matching;
    Alcotest.test_case "report on empty analysis" `Quick
      test_report_helpers_empty_inputs ]
