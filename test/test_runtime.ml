(* The device runtime: JNI bridge in both directions. *)

module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Vm = Ndroid_dalvik.Vm
module Interp = Ndroid_dalvik.Interp
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Taint = Ndroid_taint.Taint

let cls = "LApp;"
let tv ?(taint = Taint.clear) v : Vm.tval = (v, taint)
let int32 n = Dvalue.Int (Int32.of_int n)
let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))

let boot classes lib_items =
  let device = Device.create () in
  Device.install_classes device classes;
  let prog =
    Asm.assemble ~extern:Device.host_fn_addr ~base:Layout.app_lib_base lib_items
  in
  Device.provide_library device "testlib" prog;
  Device.load_library device "testlib";
  device

let test_native_int_args () =
  (* int combine(int a, int b) { return a * 100 + b; } *)
  let device =
    boot
      [ J.class_ ~name:cls [ J.native_method ~cls ~name:"combine" ~shorty:"III" "combine" ] ]
      [ Asm.Label "combine";
        (* args: r2 = a, r3 = b *)
        Asm.I (Insn.mov 0 (Insn.Imm 100));
        Asm.I (Insn.mul 1 2 0);
        Asm.I (Insn.add 0 1 (Insn.Reg 3));
        Asm.I Insn.bx_lr ]
  in
  let v, _ = Device.run device cls "combine" [| tv (int32 7); tv (int32 9) |] in
  Alcotest.(check bool) "7*100+9" true (Dvalue.equal v (int32 709))

let test_native_stack_args () =
  (* 5 int params: the last ones arrive on the stack *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"sum5" ~shorty:"IIIIII" "sum5" ] ]
      [ Asm.Label "sum5";
        (* env r0, cls r1, p0 r2, p1 r3, p2..p4 on the stack *)
        Asm.I (Insn.add 0 2 (Insn.Reg 3));
        Asm.I (Insn.ldr 2 13 0);
        Asm.I (Insn.add 0 0 (Insn.Reg 2));
        Asm.I (Insn.ldr 2 13 4);
        Asm.I (Insn.add 0 0 (Insn.Reg 2));
        Asm.I (Insn.ldr 2 13 8);
        Asm.I (Insn.add 0 0 (Insn.Reg 2));
        Asm.I Insn.bx_lr ]
  in
  let v, _ =
    Device.run device cls "sum5"
      (Array.init 5 (fun i -> tv (int32 (i + 1))))
  in
  Alcotest.(check bool) "1+2+3+4+5" true (Dvalue.equal v (int32 15))

let test_get_string_utf_chars () =
  (* int firstByte(String s) { return GetStringUTFChars(s)[0]; } *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"firstByte" ~shorty:"IL" "firstByte" ] ]
      [ Asm.Label "firstByte";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        mov 1 2;
        Asm.I (Insn.mov 2 (Insn.Imm 0));
        Asm.Call "GetStringUTFChars";
        Asm.I (Insn.ldrb 0 0 0);
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]) ]
  in
  let vm = Device.vm device in
  let s, _ = Vm.new_string vm "Quark" in
  let v, _ = Device.run device cls "firstByte" [| tv s |] in
  Alcotest.(check bool) "'Q'" true (Dvalue.equal v (int32 (Char.code 'Q')))

let test_new_string_utf_returns_java_string () =
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"makeString" ~shorty:"L" "makeString" ] ]
      [ Asm.Label "makeString";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        Asm.La (1, "msg");
        Asm.Call "NewStringUTF";
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
        Asm.Align4;
        Asm.Label "msg";
        Asm.Asciz "from native" ]
  in
  let v, _ = Device.run device cls "makeString" [||] in
  Alcotest.(check string) "contents" "from native"
    (Vm.string_of_value (Device.vm device) v)

let test_native_calls_java () =
  (* native calls back into a static Java method and returns its result + 1 *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"bounce" ~shorty:"I" "bounce";
            J.method_ ~cls ~name:"answer" ~shorty:"I" ~registers:4
              [ J.I (B.Const (0, int32 41)); J.I (B.Return 0) ] ] ]
      [ Asm.Label "bounce";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
        mov 9 0;
        Asm.La (1, "cls_name");
        Asm.Call "FindClass";
        mov 4 0;
        mov 0 9;
        mov 1 4;
        Asm.La (2, "m_name");
        Asm.La (3, "m_sig");
        Asm.Call "GetStaticMethodID";
        mov 2 0;
        mov 1 4;
        mov 0 9;
        Asm.Call "CallStaticIntMethod";
        Asm.I (Insn.add 0 0 (Insn.Imm 1));
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
        Asm.Align4;
        Asm.Label "cls_name";
        Asm.Asciz "LApp;";
        Asm.Label "m_name";
        Asm.Asciz "answer";
        Asm.Label "m_sig";
        Asm.Asciz "()I" ]
  in
  let v, _ = Device.run device cls "bounce" [||] in
  Alcotest.(check bool) "41+1" true (Dvalue.equal v (int32 42))

let test_field_access_from_native () =
  (* native reads an instance field, doubles it, writes it back *)
  let device =
    boot
      [ J.class_ ~name:cls ~fields:[ "x" ]
          [ J.native_method ~cls ~name:"touch" ~shorty:"VL" "touch";
            J.method_ ~cls ~name:"driver" ~shorty:"I" ~registers:6
              [ J.I (B.New_instance (0, cls));
                J.I (B.Const (1, int32 21));
                J.I (B.Iput (1, 0, { B.f_class = cls; f_name = "x" }));
                J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "touch" }, [ 0 ]));
                J.I (B.Iget (2, 0, { B.f_class = cls; f_name = "x" }));
                J.I (B.Return 2) ] ] ]
      [ Asm.Label "touch";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
        mov 9 0;
        mov 4 2 (* the object iref *);
        (* cls = GetObjectClass(obj); fid = GetFieldID(cls, "x", "I") *)
        mov 1 4;
        Asm.Call "GetObjectClass";
        mov 5 0;
        mov 0 9;
        mov 1 5;
        Asm.La (2, "f_name");
        Asm.La (3, "f_sig");
        Asm.Call "GetFieldID";
        mov 6 0;
        (* v = GetIntField(obj, fid) *)
        mov 0 9;
        mov 1 4;
        mov 2 6;
        Asm.Call "GetIntField";
        (* SetIntField(obj, fid, v*2) *)
        Asm.I (Insn.add 3 0 (Insn.Reg 0));
        mov 0 9;
        mov 1 4;
        mov 2 6;
        Asm.Call "SetIntField";
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
        Asm.Align4;
        Asm.Label "f_name";
        Asm.Asciz "x";
        Asm.Label "f_sig";
        Asm.Asciz "I" ]
  in
  let v, _ = Device.run device cls "driver" [||] in
  Alcotest.(check bool) "field doubled" true (Dvalue.equal v (int32 42))

let test_array_elements_roundtrip () =
  (* native doubles every element of an int[] via Get/ReleaseIntArrayElements *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"doubleAll" ~shorty:"VL" "doubleAll";
            J.method_ ~cls ~name:"driver" ~shorty:"I" ~registers:8
              [ J.I (B.Const (0, int32 3));
                J.I (B.New_array (1, 0, "I"));
                J.I (B.Const (2, int32 0));
                J.I (B.Const (3, int32 7));
                J.I (B.Aput (3, 1, 2));
                J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "doubleAll" }, [ 1 ]));
                J.I (B.Aget (4, 1, 2));
                J.I (B.Return 4) ] ] ]
      [ Asm.Label "doubleAll";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
        mov 9 0;
        mov 4 2;
        (* n = GetArrayLength(arr) *)
        mov 1 4;
        Asm.Call "GetArrayLength";
        mov 5 0;
        (* buf = GetIntArrayElements(arr, 0) *)
        mov 0 9;
        mov 1 4;
        Asm.I (Insn.mov 2 (Insn.Imm 0));
        Asm.Call "GetIntArrayElements";
        mov 6 0;
        (* double each word *)
        Asm.Label "dloop";
        Asm.I (Insn.subs 5 5 (Insn.Imm 1));
        Asm.Br (Insn.MI, "ddone");
        Asm.I (Insn.Mem { cond = Insn.AL; load = true; width = Insn.Word; rd = 1;
                          rn = 6; offset = Insn.Off_reg (true, 5, Insn.LSL, 2);
                          pre = true; writeback = false });
        Asm.I (Insn.add 1 1 (Insn.Reg 1));
        Asm.I (Insn.Mem { cond = Insn.AL; load = false; width = Insn.Word; rd = 1;
                          rn = 6; offset = Insn.Off_reg (true, 5, Insn.LSL, 2);
                          pre = true; writeback = false });
        Asm.Br (Insn.AL, "dloop");
        Asm.Label "ddone";
        (* ReleaseIntArrayElements(arr, buf, 0) — copy back *)
        mov 0 9;
        mov 1 4;
        mov 2 6;
        Asm.I (Insn.mov 3 (Insn.Imm 0));
        Asm.Call "ReleaseIntArrayElements";
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]) ]
  in
  let v, _ = Device.run device cls "driver" [||] in
  Alcotest.(check bool) "7 doubled" true (Dvalue.equal v (int32 14))

let test_throw_new () =
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"fail" ~shorty:"V" "fail" ] ]
      [ Asm.Label "fail";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        mov 9 0;
        Asm.La (1, "exn_cls");
        Asm.Call "FindClass";
        mov 1 0;
        Asm.La (2, "msg");
        mov 0 9;
        Asm.Call "ThrowNew";
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
        Asm.Align4;
        Asm.Label "exn_cls";
        Asm.Asciz "Ljava/lang/SecurityException;";
        Asm.Label "msg";
        Asm.Asciz "denied" ]
  in
  match Device.run device cls "fail" [||] with
  | exception Vm.Java_throw (Dvalue.Obj id, _) ->
    let vm = Device.vm device in
    let msg, _ =
      Interp.invoke_by_name vm "Ljava/lang/SecurityException;" "getMessage"
        [| tv (Dvalue.Obj id) |]
    in
    Alcotest.(check string) "message" "denied" (Vm.string_of_value vm msg)
  | _ -> Alcotest.fail "expected Java_throw"

let test_load_library_via_java () =
  let device = Device.create () in
  Device.install_classes device
    [ J.class_ ~name:cls
        [ J.native_method ~cls ~name:"five" ~shorty:"I" "five";
          J.method_ ~cls ~name:"main" ~shorty:"I" ~registers:4
            [ J.I (B.Const_string (0, "mylib"));
              J.I (B.Invoke (B.Static,
                             { B.m_class = "Ljava/lang/System;";
                               m_name = "loadLibrary" }, [ 0 ]));
              J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "five" }, []));
              J.I (B.Move_result 1);
              J.I (B.Return 1) ] ] ];
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.Label "five"; Asm.I (Insn.mov 0 (Insn.Imm 5)); Asm.I Insn.bx_lr ]
  in
  Device.provide_library device "mylib" prog;
  let v, _ = Device.run device cls "main" [||] in
  Alcotest.(check bool) "loaded and called" true (Dvalue.equal v (int32 5))

let test_unsatisfied_link_error () =
  let device = Device.create () in
  Device.install_classes device
    [ J.class_ ~name:cls
        [ J.native_method ~cls ~name:"ghost" ~shorty:"V" "ghost" ] ];
  Alcotest.(check bool) "raises" true
    (match Device.run device cls "ghost" [||] with
     | exception Vm.Dvm_error msg ->
       String.length msg > 0 && String.sub msg 0 22 = "UnsatisfiedLinkError: "
     | _ -> false)

let test_default_return_policy_clear () =
  (* without an analysis attached, a native return value carries no taint
     even when parameters are tainted *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"echo" ~shorty:"II" "echo" ] ]
      [ Asm.Label "echo"; mov 0 2; Asm.I Insn.bx_lr ]
  in
  let _, t = Device.run device cls "echo" [| tv ~taint:Taint.imei (int32 1) |] in
  Alcotest.(check bool) "clear by default" true (Taint.is_clear t)

let test_gc_during_native_flow () =
  (* an iref taken before a GC still resolves after it *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"make" ~shorty:"L" "make" ] ]
      [ Asm.Label "make";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        Asm.La (1, "s");
        Asm.Call "NewStringUTF";
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
        Asm.Align4;
        Asm.Label "s";
        Asm.Asciz "survivor" ]
  in
  let v, _ = Device.run device cls "make" [||] in
  Device.gc device;
  Device.gc device;
  Alcotest.(check string) "string survives two GCs" "survivor"
    (Vm.string_of_value (Device.vm device) v)

let suite =
  [ Alcotest.test_case "native int args" `Quick test_native_int_args;
    Alcotest.test_case "native stack args" `Quick test_native_stack_args;
    Alcotest.test_case "GetStringUTFChars" `Quick test_get_string_utf_chars;
    Alcotest.test_case "NewStringUTF" `Quick test_new_string_utf_returns_java_string;
    Alcotest.test_case "native calls Java" `Quick test_native_calls_java;
    Alcotest.test_case "field access from native" `Quick
      test_field_access_from_native;
    Alcotest.test_case "array elements roundtrip" `Quick
      test_array_elements_roundtrip;
    Alcotest.test_case "ThrowNew" `Quick test_throw_new;
    Alcotest.test_case "System.loadLibrary" `Quick test_load_library_via_java;
    Alcotest.test_case "UnsatisfiedLinkError" `Quick test_unsatisfied_link_error;
    Alcotest.test_case "default return policy is clear" `Quick
      test_default_return_policy_clear;
    Alcotest.test_case "GC during native flow" `Quick test_gc_during_native_flow ]
