(* Tooling: disassembler and analysis reports. *)

module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Disasm = Ndroid_arm.Disasm
module Report = Ndroid_core.Report
module H = Ndroid_apps.Harness

let has_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else loop (i + 1)
  in
  nl = 0 || loop 0

let test_disasm_arm_roundtrip () =
  let insns =
    [ Insn.mov 0 (Insn.Imm 7);
      Insn.add 1 0 (Insn.Reg 0);
      Insn.ldr 2 1 4;
      Insn.push [ Insn.r4; Insn.lr ];
      Insn.bx_lr ]
  in
  let prog =
    Asm.assemble ~base:0x1000
      (Asm.Label "f" :: List.map (fun i -> Asm.I i) insns)
  in
  let lines = Disasm.program prog in
  Alcotest.(check int) "line count" (List.length insns) (List.length lines);
  List.iter2
    (fun insn line ->
      match line.Disasm.l_insn with
      | Some decoded ->
        Alcotest.(check string) "same instruction" (Insn.to_string insn)
          (Insn.to_string decoded)
      | None -> Alcotest.failf "failed to disassemble %s" (Insn.to_string insn))
    insns lines;
  Alcotest.(check (option string)) "label annotation" (Some "f")
    (List.hd lines).Disasm.l_label

let test_disasm_data_marked () =
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.I Insn.bx_lr; Asm.Label "data"; Asm.Word 0xFFFFFFFF ]
  in
  match Disasm.program prog with
  | [ _code; data ] ->
    (* 0xFFFFFFFF has cond=1111: not decodable in our subset *)
    Alcotest.(check bool) "data line" true (data.Disasm.l_insn = None);
    Alcotest.(check (option string)) "data label" (Some "data")
      data.Disasm.l_label
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

let test_disasm_thumb () =
  let prog =
    Asm.assemble ~mode:Cpu.Thumb ~base:0x2000
      [ Asm.Label "t"; Asm.I (Insn.movs 0 (Insn.Imm 1)); Asm.I Insn.bx_lr ]
  in
  let lines = Disasm.program prog in
  Alcotest.(check int) "two halfwords" 2 (List.length lines);
  Alcotest.(check int) "2-byte insns" 2 (List.hd lines).Disasm.l_size

let test_report_detected () =
  let o = H.run H.Ndroid_full Ndroid_apps.Cases.case1' in
  match o.H.analysis with
  | None -> Alcotest.fail "no analysis"
  | Some nd ->
    let r =
      Report.generate ~app_name:"case1'" ~transmissions:o.H.transmissions
        ~file_writes:o.H.file_writes nd
    in
    Alcotest.(check bool) "verdict" true
      (has_substring r "VERDICT: 1 information leak(s) detected");
    Alcotest.(check bool) "categories" true
      (has_substring r "leaked categories: contacts, sms");
    Alcotest.(check bool) "sink" true (has_substring r "sink=Socket.send");
    Alcotest.(check bool) "flow log included" true (has_substring r "SourceHandler")

let test_report_clean () =
  let o = H.run H.Ndroid_full Ndroid_apps.Evasion.app in
  match o.H.analysis with
  | None -> Alcotest.fail "no analysis"
  | Some nd ->
    let r = Report.generate nd in
    Alcotest.(check bool) "clean verdict" true
      (has_substring r "no tainted information flow reached a sink")

let suite =
  [ Alcotest.test_case "disasm ARM roundtrip" `Quick test_disasm_arm_roundtrip;
    Alcotest.test_case "disasm marks data" `Quick test_disasm_data_marked;
    Alcotest.test_case "disasm thumb" `Quick test_disasm_thumb;
    Alcotest.test_case "report for a detection" `Quick test_report_detected;
    Alcotest.test_case "report for a clean run" `Quick test_report_clean ]

(* ---- execution trace: the machine's records in an obs ring ---- *)

module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Ring = Ndroid_obs.Ring
module Event = Ndroid_obs.Event

type entry = Insn of int * Insn.t | Host_enter of string | Host_leave of string

(* record a machine's activity into a fresh ring with instruction tracing
   on; [entries] reads it back oldest first, copying out of the live
   cells *)
let trace ?capacity m =
  let ring = Ring.create ?capacity ~tracing:true () in
  Machine.set_obs m ring;
  ring

let entries ring =
  List.rev
    (Ring.fold
       (fun acc r ->
         match r.Event.e_kind with
         | Event.K_insn -> Insn (r.Event.e_addr, r.Event.e_insn) :: acc
         | Event.K_host_enter -> Host_enter r.Event.e_name :: acc
         | Event.K_host_leave -> Host_leave r.Event.e_name :: acc
         | _ -> acc)
       [] ring)

let test_trace_records_in_order () =
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  Machine.mount_layout m
    (Machine.host_layout [ ("libc.so", "nop", 0x40100100, fun () _ _ -> ()) ])
    ();
  let prog =
    Asm.assemble ~extern:(fun _ -> Some 0x40100100) ~base:Layout.app_lib_base
      [ Asm.I (Insn.mov 0 (Insn.Imm 1));
        Asm.I (Insn.push [ Insn.lr ]);
        Asm.Call "nop";
        Asm.I (Insn.pop [ Insn.pc ]) ]
  in
  Machine.load_program m prog;
  let ring = trace m in
  ignore (Machine.call_native m ~addr:Layout.app_lib_base ~args:[] ());
  let es = entries ring in
  Alcotest.(check bool) "starts with the first insn" true
    (match List.hd es with
     | Insn (addr, _) -> addr = Layout.app_lib_base
     | _ -> false);
  Alcotest.(check bool) "host boundaries present" true
    (List.mem (Host_enter "nop") es && List.mem (Host_leave "nop") es);
  Alcotest.(check int) "total matches list" (List.length es) (Ring.total ring)

let test_trace_ring_bounded () =
  let m = Machine.create () in
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.I (Insn.mov 1 (Insn.Imm 200));
        Asm.Label "loop";
        Asm.I (Insn.subs 1 1 (Insn.Imm 1));
        Asm.Br (Insn.NE, "loop");
        Asm.I Insn.bx_lr ]
  in
  Machine.load_program m prog;
  let ring = trace ~capacity:32 m in
  ignore (Machine.call_native m ~addr:Layout.app_lib_base ~args:[] ());
  Alcotest.(check int) "ring keeps 32" 32 (List.length (entries ring));
  Alcotest.(check bool) "but saw everything" true (Ring.total ring > 300);
  Alcotest.(check bool) "tail ends with bx lr" true
    (match List.rev (entries ring) with
     | Insn (_, Ndroid_arm.Insn.Bx _) :: _ -> true
     | _ -> false)

let suite =
  suite
  @ [ Alcotest.test_case "trace records in order" `Quick
        test_trace_records_in_order;
      Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded ]
