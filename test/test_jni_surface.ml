(* Deeper JNI surface coverage: the V (va_list) and A (jvalue array) call
   variants, NewObjectA with a constructor, object arrays, global refs,
   ExceptionOccurred/Clear from native code. *)

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

let cls = "LSurface;"
let tv ?(taint = Taint.clear) v : Vm.tval = (v, taint)
let int32 n = Dvalue.Int (Int32.of_int n)
let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))
let movi rd v = Asm.I (Insn.mov rd (Insn.Imm v))

let boot classes lib_items =
  let device = Device.create () in
  Device.install_classes device classes;
  let prog =
    Asm.assemble ~extern:Device.host_fn_addr ~base:Layout.app_lib_base lib_items
  in
  Device.provide_library device "surface" prog;
  Device.load_library device "surface";
  device

(* shared: resolve class + static method id into r4/r5; expects env in r9 *)
let resolve_static ~cls_label ~name_label ~sig_label =
  [ mov 0 9;
    Asm.La (1, cls_label);
    Asm.Call "FindClass";
    Asm.I (Insn.mov 4 (Insn.Reg 0));
    mov 0 9;
    mov 1 4;
    Asm.La (2, name_label);
    Asm.La (3, sig_label);
    Asm.Call "GetStaticMethodID";
    Asm.I (Insn.mov 5 (Insn.Reg 0)) ]

let test_call_v_variant () =
  (* CallStaticIntMethodV: va_list = pointer to 4-byte words in memory *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"driver" ~shorty:"I" "driver";
            J.method_ ~cls ~name:"sub" ~shorty:"III" ~registers:8
              [ J.I (B.Binop (B.Sub, 0, 6, 7)); J.I (B.Return 0) ] ] ]
      ([ Asm.Label "driver";
         Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
         Asm.I (Insn.mov 9 (Insn.Reg 0)) ]
       @ resolve_static ~cls_label:"c" ~name_label:"m" ~sig_label:"s"
       @ [ (* build the va_list: [50; 8] *)
           Asm.La (1, "valist");
           movi 2 50;
           Asm.I (Insn.str 2 1 0);
           movi 2 8;
           Asm.I (Insn.str 2 1 4);
           (* CallStaticIntMethodV(env, cls, mid, valist) *)
           mov 0 9;
           mov 1 4;
           mov 2 5;
           Asm.La (3, "valist");
           Asm.Call "CallStaticIntMethodV";
           Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
           Asm.Align4;
           Asm.Label "c";
           Asm.Asciz "LSurface;";
           Asm.Label "m";
           Asm.Asciz "sub";
           Asm.Label "s";
           Asm.Asciz "(II)I";
           Asm.Label "valist";
           Asm.Word 0;
           Asm.Word 0 ])
  in
  let v, _ = Device.run device cls "driver" [||] in
  Alcotest.(check bool) "50 - 8" true (Dvalue.equal v (int32 42))

let test_call_a_variant_jvalues () =
  (* CallStaticIntMethodA: jvalue array with 8-byte elements *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"driver" ~shorty:"I" "driver";
            J.method_ ~cls ~name:"mul" ~shorty:"III" ~registers:8
              [ J.I (B.Binop (B.Mul, 0, 6, 7)); J.I (B.Return 0) ] ] ]
      ([ Asm.Label "driver";
         Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
         Asm.I (Insn.mov 9 (Insn.Reg 0)) ]
       @ resolve_static ~cls_label:"c" ~name_label:"m" ~sig_label:"s"
       @ [ Asm.La (1, "jvalues");
           movi 2 6;
           Asm.I (Insn.str 2 1 0) (* jvalue[0] = 6 *);
           movi 2 7;
           Asm.I (Insn.str 2 1 8) (* jvalue[1] = 7: 8-byte stride *);
           mov 0 9;
           mov 1 4;
           mov 2 5;
           Asm.La (3, "jvalues");
           Asm.Call "CallStaticIntMethodA";
           Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
           Asm.Align4;
           Asm.Label "c";
           Asm.Asciz "LSurface;";
           Asm.Label "m";
           Asm.Asciz "mul";
           Asm.Label "s";
           Asm.Asciz "(II)I";
           Asm.Label "jvalues";
           Asm.Word 0;
           Asm.Word 0;
           Asm.Word 0;
           Asm.Word 0 ])
  in
  let v, _ = Device.run device cls "driver" [||] in
  Alcotest.(check bool) "6 * 7" true (Dvalue.equal v (int32 42))

let test_new_object_with_ctor () =
  (* NewObjectA runs <init>; the native code then reads the field back *)
  let box = "LBox;" in
  let device =
    boot
      [ J.class_ ~name:box ~fields:[ "v" ]
          [ J.method_ ~cls:box ~name:"<init>" ~shorty:"VI" ~static:false
              ~registers:6
              [ J.I (B.Iput (5, 4, { B.f_class = box; f_name = "v" }));
                J.I B.Return_void ] ];
        J.class_ ~name:cls
          [ J.native_method ~cls ~name:"driver" ~shorty:"I" "driver" ] ]
      [ Asm.Label "driver";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
        Asm.I (Insn.mov 9 (Insn.Reg 0));
        (* cls = FindClass("LBox;"), mid = GetMethodID(cls, "<init>", "(I)V") *)
        mov 0 9;
        Asm.La (1, "box_c");
        Asm.Call "FindClass";
        Asm.I (Insn.mov 4 (Insn.Reg 0));
        mov 0 9;
        mov 1 4;
        Asm.La (2, "init_n");
        Asm.La (3, "init_s");
        Asm.Call "GetMethodID";
        Asm.I (Insn.mov 5 (Insn.Reg 0));
        (* obj = NewObjectA(cls, mid, {99}) *)
        Asm.La (1, "ctor_args");
        movi 2 99;
        Asm.I (Insn.str 2 1 0);
        mov 0 9;
        mov 1 4;
        mov 2 5;
        Asm.La (3, "ctor_args");
        Asm.Call "NewObjectA";
        Asm.I (Insn.mov 6 (Insn.Reg 0));
        (* fid = GetFieldID(cls, "v", "I"); return GetIntField(obj, fid) *)
        mov 0 9;
        mov 1 4;
        Asm.La (2, "f_n");
        Asm.La (3, "f_s");
        Asm.Call "GetFieldID";
        mov 2 0;
        mov 1 6;
        mov 0 9;
        Asm.Call "GetIntField";
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
        Asm.Align4;
        Asm.Label "box_c";
        Asm.Asciz "LBox;";
        Asm.Label "init_n";
        Asm.Asciz "<init>";
        Asm.Label "init_s";
        Asm.Asciz "(I)V";
        Asm.Label "f_n";
        Asm.Asciz "v";
        Asm.Label "f_s";
        Asm.Asciz "I";
        Asm.Label "ctor_args";
        Asm.Word 0;
        Asm.Word 0 ]
  in
  let v, _ = Device.run device cls "driver" [||] in
  Alcotest.(check bool) "ctor stored the field" true (Dvalue.equal v (int32 99))

let test_object_array_and_global_ref () =
  (* build a String[], put/get an element, pin it with NewGlobalRef, survive
     a GC, read the string *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"pin" ~shorty:"LL" "pin" ] ]
      [ Asm.Label "pin";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
        Asm.I (Insn.mov 9 (Insn.Reg 0));
        Asm.I (Insn.mov 4 (Insn.Reg 2)) (* the string argument *);
        (* gref = NewGlobalRef(str) *)
        mov 1 4;
        Asm.Call "NewGlobalRef";
        Asm.I (Insn.mov 5 (Insn.Reg 0));
        (* arr = NewObjectArray(1, <ignored>, null); arr[0] = gref *)
        mov 0 9;
        movi 1 1;
        movi 2 1;
        Asm.Call "NewObjectArray";
        mov 1 0;
        movi 2 0;
        mov 3 5;
        Asm.I (Insn.push [ Insn.r1 ]) (* keep arr *);
        mov 0 9;
        Asm.Call "SetObjectArrayElement";
        Asm.I (Insn.pop [ Insn.r1 ]);
        (* return GetObjectArrayElement(arr, 0) *)
        movi 2 0;
        mov 0 9;
        Asm.Call "GetObjectArrayElement";
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]) ]
  in
  let vm = Device.vm device in
  let s, t = Vm.new_string vm ~taint:Taint.contacts "pinned" in
  let v, _ = Device.run device cls "pin" [| (s, t) |] in
  Device.gc device;
  Alcotest.(check string) "string back out of the array" "pinned"
    (Vm.string_of_value vm v)

let test_exception_occurred_and_clear () =
  (* native throws, checks ExceptionOccurred, clears, and returns normally:
     the Java side must NOT see an exception *)
  let device =
    boot
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"recover" ~shorty:"I" "recover" ] ]
      [ Asm.Label "recover";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        Asm.I (Insn.mov 9 (Insn.Reg 0));
        mov 0 9;
        Asm.La (1, "exn_c");
        Asm.Call "FindClass";
        mov 1 0;
        Asm.La (2, "msg");
        mov 0 9;
        Asm.Call "ThrowNew";
        (* pending? *)
        mov 0 9;
        Asm.Call "ExceptionOccurred";
        Asm.I (Insn.cmp 0 (Insn.Imm 0));
        Asm.Br (Insn.EQ, "no_exn");
        mov 0 9;
        Asm.Call "ExceptionClear";
        movi 0 1;
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
        Asm.Label "no_exn";
        movi 0 0;
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
        Asm.Align4;
        Asm.Label "exn_c";
        Asm.Asciz "Ljava/lang/SecurityException;";
        Asm.Label "msg";
        Asm.Asciz "transient" ]
  in
  let v, _ = Device.run device cls "recover" [||] in
  Alcotest.(check bool) "saw and cleared the exception" true
    (Dvalue.equal v (int32 1))

let test_nonvirtual_call () =
  (* CallNonvirtualIntMethod must use the named class, not the dynamic type *)
  let base = "LBase;" and sub = "LSub2;" in
  let device =
    boot
      [ J.class_ ~name:base
          [ J.method_ ~cls:base ~name:"who" ~shorty:"I" ~static:false ~registers:4
              [ J.I (B.Const (0, int32 1)); J.I (B.Return 0) ] ];
        J.class_ ~name:sub ~super:base
          [ J.method_ ~cls:sub ~name:"who" ~shorty:"I" ~static:false ~registers:4
              [ J.I (B.Const (0, int32 2)); J.I (B.Return 0) ] ];
        J.class_ ~name:cls
          [ J.native_method ~cls ~name:"callBase" ~shorty:"IL" "callBase" ] ]
      [ Asm.Label "callBase";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
        Asm.I (Insn.mov 9 (Insn.Reg 0));
        Asm.I (Insn.mov 4 (Insn.Reg 2)) (* the receiver (a Sub2) *);
        mov 0 9;
        Asm.La (1, "base_c");
        Asm.Call "FindClass";
        mov 1 0;
        Asm.La (2, "who_n");
        Asm.La (3, "who_s");
        mov 0 9;
        Asm.Call "GetMethodID";
        mov 2 0;
        mov 1 4;
        mov 0 9;
        Asm.Call "CallIntMethod";
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
        Asm.Align4;
        Asm.Label "base_c";
        Asm.Asciz "LBase;";
        Asm.Label "who_n";
        Asm.Asciz "who";
        Asm.Label "who_s";
        Asm.Asciz "()I" ]
  in
  let vm = Device.vm device in
  let o = Ndroid_dalvik.Heap.alloc_instance vm.Vm.heap sub 0 in
  let v, _ =
    Device.run device cls "callBase" [| tv (Dvalue.Obj o.Ndroid_dalvik.Heap.id) |]
  in
  (* CallIntMethod is virtual: dispatches to the Sub2 override *)
  Alcotest.(check bool) "virtual dispatch through JNI" true
    (Dvalue.equal v (int32 2))

let suite =
  [ Alcotest.test_case "Call...MethodV (va_list)" `Quick test_call_v_variant;
    Alcotest.test_case "Call...MethodA (jvalue stride 8)" `Quick
      test_call_a_variant_jvalues;
    Alcotest.test_case "NewObjectA runs the constructor" `Quick
      test_new_object_with_ctor;
    Alcotest.test_case "object array + global ref + GC" `Quick
      test_object_array_and_global_ref;
    Alcotest.test_case "ExceptionOccurred / ExceptionClear" `Quick
      test_exception_occurred_and_clear;
    Alcotest.test_case "virtual dispatch through CallIntMethod" `Quick
      test_nonvirtual_call ]
