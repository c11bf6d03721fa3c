(* Extended surface: long multiply / CLZ, JNI array regions, input
   generation (Sec. VI), and the Sec. VII control-flow evasion. *)

module Insn = Ndroid_arm.Insn
module Encode = Ndroid_arm.Encode
module Decode = Ndroid_arm.Decode
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Exec = Ndroid_arm.Exec
module Asm = Ndroid_arm.Asm
module Layout = Ndroid_emulator.Layout
module Machine = Ndroid_emulator.Machine
module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Taint = Ndroid_taint.Taint
module Taint_engine = Ndroid_emulator.Taint_engine
module Insn_taint = Ndroid_emulator.Insn_taint
module Ndroid = Ndroid_core.Ndroid
module M = Ndroid_apps.Monkey
module H = Ndroid_apps.Harness

let insn_t = Alcotest.testable Insn.pp ( = )
let check_taint = Alcotest.testable Taint.pp Taint.equal

let test_mull_clz_roundtrip () =
  List.iter
    (fun i ->
      match Decode.decode (Encode.encode i) with
      | Some i' -> Alcotest.check insn_t (Insn.to_string i) i i'
      | None -> Alcotest.failf "decode failed for %s" (Insn.to_string i))
    [ Insn.umull 0 1 2 3;
      Insn.smull 4 5 6 7;
      Insn.Mull { cond = Insn.NE; signed = true; s = true; rdlo = 1; rdhi = 2;
                  rm = 3; rs = 4 };
      Insn.clz 0 1;
      Insn.Clz { cond = Insn.EQ; rd = 5; rm = 9 } ]

let run_snippet items check =
  let prog = Asm.assemble ~base:0x1000 items in
  let mem = Memory.create () in
  Asm.load prog mem;
  let cpu = Cpu.create () in
  Cpu.set_pc cpu 0x1000;
  Cpu.set_reg cpu 14 0xFFFF0000;
  let n = ref 0 in
  while Cpu.pc cpu <> 0xFFFF0000 && !n < 10_000 do
    ignore (Exec.step cpu mem);
    incr n
  done;
  check cpu

let test_umull_exec () =
  run_snippet
    [ Asm.Li (2, 0x10000);
      Asm.Li (3, 0x10000);
      Asm.I (Insn.umull 0 1 2 3);
      Asm.I Insn.bx_lr ]
    (fun cpu ->
      (* 0x10000 * 0x10000 = 0x1_0000_0000 *)
      Alcotest.(check int) "lo" 0 (Cpu.reg cpu 0);
      Alcotest.(check int) "hi" 1 (Cpu.reg cpu 1))

let test_smull_exec () =
  run_snippet
    [ Asm.Li (2, 0xFFFFFFFF) (* -1 *);
      Asm.I (Insn.mov 3 (Insn.Imm 5));
      Asm.I (Insn.smull 0 1 2 3);
      Asm.I Insn.bx_lr ]
    (fun cpu ->
      (* -1 * 5 = -5 = 0xFFFFFFFF_FFFFFFFB *)
      Alcotest.(check int) "lo" 0xFFFFFFFB (Cpu.reg cpu 0);
      Alcotest.(check int) "hi" 0xFFFFFFFF (Cpu.reg cpu 1))

let test_clz_exec () =
  run_snippet
    [ Asm.I (Insn.mov 1 (Insn.Imm 1));
      Asm.I (Insn.clz 0 1);
      Asm.I (Insn.mov 2 (Insn.Imm 0));
      Asm.I (Insn.clz 3 2);
      Asm.Li (4, 0x80000000);
      Asm.I (Insn.clz 5 4);
      Asm.I Insn.bx_lr ]
    (fun cpu ->
      Alcotest.(check int) "clz 1" 31 (Cpu.reg cpu 0);
      Alcotest.(check int) "clz 0" 32 (Cpu.reg cpu 3);
      Alcotest.(check int) "clz msb" 0 (Cpu.reg cpu 5))

let test_mull_taint () =
  let e = Taint_engine.create () and cpu = Cpu.create () in
  Taint_engine.set_reg e 2 Taint.imei;
  Taint_engine.set_reg e 3 Taint.sms;
  Insn_taint.step e cpu ~addr:0 (Insn.umull 0 1 2 3);
  Alcotest.check check_taint "lo tainted" (Taint.union Taint.imei Taint.sms)
    (Taint_engine.reg e 0);
  Alcotest.check check_taint "hi tainted" (Taint.union Taint.imei Taint.sms)
    (Taint_engine.reg e 1)

(* ---- JNI array regions ---- *)

let region_cls = "LRegions;"

let region_app : H.app =
  { H.app_name = "regions";
    app_case = "jni";
    description = "array/string region copies";
    classes =
      [ J.class_ ~name:region_cls
          [ J.native_method ~cls:region_cls ~name:"sumRegion" ~shorty:"IL"
              "sumRegion";
            J.native_method ~cls:region_cls ~name:"grabString" ~shorty:"IL"
              "grabString";
            J.method_ ~cls:region_cls ~name:"driver" ~shorty:"I" ~registers:8
              [ J.I (B.Const (0, Dvalue.Int 4l));
                J.I (B.New_array (1, 0, "I"));
                J.I (B.Const (2, Dvalue.Int 0l));
                J.I (B.Const (3, Dvalue.Int 11l));
                J.I (B.Aput (3, 1, 2));
                J.I (B.Const (2, Dvalue.Int 1l));
                J.I (B.Const (3, Dvalue.Int 31l));
                J.I (B.Aput (3, 1, 2));
                J.I (B.Invoke (B.Static, { B.m_class = region_cls;
                                           m_name = "sumRegion" }, [ 1 ]));
                J.I (B.Move_result 4);
                J.I (B.Return 4) ] ] ];
    build_libs =
      (fun extern ->
        let open Asm in
        [ ( "regions",
            assemble ~extern ~base:Layout.app_lib_base
              ([ (* int sumRegion(int[] a): GetIntArrayRegion(a, 0, 2, buf);
                    return buf[0] + buf[1] *)
                 Label "sumRegion";
                 I (Insn.push [ Insn.r4; Insn.lr ]);
                 I (Insn.mov 1 (Insn.Reg 2));
                 I (Insn.mov 2 (Insn.Imm 0));
                 I (Insn.mov 3 (Insn.Imm 2));
                 La (7, "rbuf");
                 I (Insn.push [ Insn.r7 ]);
                 Call "GetIntArrayRegion";
                 I (Insn.add 13 13 (Insn.Imm 4));
                 La (1, "rbuf");
                 I (Insn.ldr 0 1 0);
                 I (Insn.ldr 2 1 4);
                 I (Insn.add 0 0 (Insn.Reg 2));
                 I (Insn.pop [ Insn.r4; Insn.pc ]);
                 (* int grabString(String s): GetStringUTFRegion(s,0,3,buf);
                    return buf[0] *)
                 Label "grabString";
                 I (Insn.push [ Insn.r4; Insn.lr ]);
                 I (Insn.mov 1 (Insn.Reg 2));
                 I (Insn.mov 2 (Insn.Imm 0));
                 I (Insn.mov 3 (Insn.Imm 3));
                 La (7, "rbuf");
                 I (Insn.push [ Insn.r7 ]);
                 Call "GetStringUTFRegion";
                 I (Insn.add 13 13 (Insn.Imm 4));
                 La (1, "rbuf");
                 I (Insn.ldrb 0 1 0);
                 I (Insn.pop [ Insn.r4; Insn.pc ]);
                 Align4;
                 Label "rbuf" ]
              @ List.init 8 (fun _ -> Word 0)) ) ]);
    entry = (region_cls, "driver");
    expected_sink = "" }

let test_get_array_region () =
  let device = H.boot region_app in
  let v, _ = Device.run device region_cls "driver" [||] in
  Alcotest.(check bool) "11+31" true (Dvalue.equal v (Dvalue.Int 42l))

let test_string_region_taint () =
  let device = H.boot region_app in
  let nd = Ndroid.attach device in
  let vm = Device.vm device in
  let s, t = Vm.new_string vm ~taint:Taint.sms "SECRET" in
  let v, _ = Device.run device region_cls "grabString" [| (s, t) |] in
  Alcotest.(check bool) "'S'" true (Dvalue.equal v (Dvalue.Int 83l));
  (* the NDroid hook must have tainted the native buffer *)
  let engine = Ndroid.engine nd in
  Alcotest.(check bool) "buffer tainted" true
    (Ndroid_emulator.Taint_engine.tainted_bytes engine > 0)

(* ---- input generation ---- *)

let test_scripted_input_triggers () =
  let r = M.drive_script ~script:M.gated_script ~mode:H.Ndroid_full M.gated_app in
  Alcotest.(check bool) "directed input leaks" true r.M.leaked

let test_wrong_order_does_not_trigger () =
  let r =
    M.drive_script
      ~script:[ "upload"; "sync"; "account"; "settings" ]
      ~mode:H.Ndroid_full M.gated_app
  in
  Alcotest.(check bool) "reversed path is safe" false r.M.leaked

let test_reset_breaks_the_path () =
  let r =
    M.drive_script
      ~script:[ "settings"; "account"; "home"; "sync"; "upload" ]
      ~mode:H.Ndroid_full M.gated_app
  in
  Alcotest.(check bool) "home resets the state machine" false r.M.leaked

let test_random_monkey_mostly_misses () =
  let found = M.discovery_rate ~seeds:10 ~events:60 ~mode:H.Ndroid_full M.gated_app in
  Alcotest.(check bool) "finds it rarely" true (found <= 3)

let test_random_monkey_deterministic () =
  let a = M.drive_random ~seed:7 ~events:25 ~mode:H.Vanilla M.gated_app in
  let b = M.drive_random ~seed:7 ~events:25 ~mode:H.Vanilla M.gated_app in
  Alcotest.(check (list string)) "same events" a.M.events_fired b.M.events_fired

(* ---- control-flow evasion (negative fixture) ---- *)

let test_evasion_leaks_but_is_missed () =
  let missed, payload = Ndroid_apps.Evasion.run_and_confirm_miss () in
  Alcotest.(check bool) "NDroid misses the implicit flow" true missed;
  Alcotest.(check (option string)) "the IMEI still left the device"
    (Some "357242043237517") payload

let test_evasion_missed_by_everyone () =
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        (H.mode_name mode ^ " misses")
        false
        (H.run mode Ndroid_apps.Evasion.app).H.detected)
    [ H.Vanilla; H.Taintdroid_only; H.Droidscope_mode; H.Ndroid_full ]

let suite =
  [ Alcotest.test_case "UMULL/SMULL/CLZ roundtrip" `Quick test_mull_clz_roundtrip;
    Alcotest.test_case "UMULL exec" `Quick test_umull_exec;
    Alcotest.test_case "SMULL exec" `Quick test_smull_exec;
    Alcotest.test_case "CLZ exec" `Quick test_clz_exec;
    Alcotest.test_case "MULL taint rule" `Quick test_mull_taint;
    Alcotest.test_case "GetIntArrayRegion" `Quick test_get_array_region;
    Alcotest.test_case "GetStringUTFRegion taint" `Quick test_string_region_taint;
    Alcotest.test_case "scripted input triggers" `Quick test_scripted_input_triggers;
    Alcotest.test_case "wrong order safe" `Quick test_wrong_order_does_not_trigger;
    Alcotest.test_case "reset breaks path" `Quick test_reset_breaks_the_path;
    Alcotest.test_case "random monkey mostly misses" `Quick
      test_random_monkey_mostly_misses;
    Alcotest.test_case "random monkey deterministic" `Quick
      test_random_monkey_deterministic;
    Alcotest.test_case "evasion leaks but is missed" `Quick
      test_evasion_leaks_but_is_missed;
    Alcotest.test_case "evasion missed by every mode" `Quick
      test_evasion_missed_by_everyone ]
