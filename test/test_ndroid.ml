(* NDroid core: Table V propagation rules, SourcePolicy, the hook engines,
   end-to-end detection, and GC robustness of native-side taint. *)

module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Taint_engine = Ndroid_emulator.Taint_engine
module Insn_taint = Ndroid_emulator.Insn_taint
module Source_policy = Ndroid_core.Source_policy
module Ndroid = Ndroid_core.Ndroid
module Flow_log = Ndroid_core.Flow_log
module Device = Ndroid_runtime.Device
module H = Ndroid_apps.Harness
module Cases = Ndroid_apps.Cases

let check_taint = Alcotest.testable Taint.pp Taint.equal
let t_a = Taint.imei
let t_b = Taint.sms

(* ---- Table V rules, row by row ---- *)

let fresh () = (Taint_engine.create (), Cpu.create ())

let step engine cpu insn = Insn_taint.step engine cpu ~addr:0x1000 insn

let test_rule_binop_three_reg () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 1 t_a;
  Taint_engine.set_reg e 2 t_b;
  step e cpu (Insn.add 0 1 (Insn.Reg 2));
  Alcotest.check check_taint "t(Rd) = t(Rn) OR t(Rm)" (Taint.union t_a t_b)
    (Taint_engine.reg e 0)

let test_rule_binop_two_reg () =
  (* binary-op Rd, Rm (Rd = Rd op Rm): accumulate *)
  let e, cpu = fresh () in
  Taint_engine.set_reg e 0 t_a;
  Taint_engine.set_reg e 2 t_b;
  step e cpu (Insn.eor 0 0 (Insn.Reg 2));
  Alcotest.check check_taint "t(Rd) accumulates" (Taint.union t_a t_b)
    (Taint_engine.reg e 0)

let test_rule_binop_imm () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 1 t_a;
  Taint_engine.set_reg e 0 t_b;
  step e cpu (Insn.add 0 1 (Insn.Imm 7));
  Alcotest.check check_taint "t(Rd) = t(Rm), old Rd tag replaced" t_a
    (Taint_engine.reg e 0)

let test_rule_unary () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 1 t_a;
  step e cpu (Insn.mvn 0 (Insn.Reg 1));
  Alcotest.check check_taint "unary copies" t_a (Taint_engine.reg e 0)

let test_rule_mov_imm_clears () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 0 t_a;
  step e cpu (Insn.mov 0 (Insn.Imm 5));
  Alcotest.check check_taint "mov #imm clears" Taint.clear (Taint_engine.reg e 0)

let test_rule_mov_reg () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 3 t_b;
  step e cpu (Insn.mov 0 (Insn.Reg 3));
  Alcotest.check check_taint "mov Rm copies" t_b (Taint_engine.reg e 0)

let test_rule_ldr () =
  let e, cpu = fresh () in
  Cpu.set_reg cpu 1 0x5000;
  Taint_engine.set_mem e 0x5004 4 t_a;
  step e cpu (Insn.ldr 0 1 4);
  Alcotest.check check_taint "t(Rd) = t(M[addr])" t_a (Taint_engine.reg e 0)

let test_rule_ldr_address_taint () =
  (* "if the tainted input is the address of an untainted value, the taint
     will be propagated to it" — the OR t(Rn) part *)
  let e, cpu = fresh () in
  Cpu.set_reg cpu 1 0x5000;
  Taint_engine.set_reg e 1 t_b;
  step e cpu (Insn.ldr 0 1 0);
  Alcotest.check check_taint "t(Rd) includes t(Rn)" t_b (Taint_engine.reg e 0)

let test_rule_str () =
  let e, cpu = fresh () in
  Cpu.set_reg cpu 1 0x6000;
  Taint_engine.set_reg e 0 t_a;
  step e cpu (Insn.str 0 1 8);
  Alcotest.check check_taint "t(M[addr]) = t(Rd)" t_a (Taint_engine.mem e 0x6008 4);
  (* storing a clean register clears the location (set, not union) *)
  Taint_engine.set_reg e 0 Taint.clear;
  step e cpu (Insn.str 0 1 8);
  Alcotest.check check_taint "overwrite clears" Taint.clear
    (Taint_engine.mem e 0x6008 4)

let test_rule_strb_byte_granularity () =
  let e, cpu = fresh () in
  Cpu.set_reg cpu 1 0x6000;
  Taint_engine.set_reg e 0 t_a;
  step e cpu (Insn.strb 0 1 0);
  Alcotest.check check_taint "tainted byte" t_a (Taint_engine.mem e 0x6000 1);
  Alcotest.check check_taint "next byte clean" Taint.clear
    (Taint_engine.mem e 0x6001 1)

let test_rule_push_pop () =
  let e, cpu = fresh () in
  Cpu.set_sp cpu 0x8000;
  Taint_engine.set_reg e 4 t_a;
  Taint_engine.set_reg e 14 t_b;
  (* PUSH {r4, lr}: both memory words pick up the register tags *)
  step e cpu (Insn.push [ 4; 14 ]);
  Alcotest.check check_taint "stacked r4" t_a (Taint_engine.mem e 0x7FF8 4);
  Alcotest.check check_taint "stacked lr" t_b (Taint_engine.mem e 0x7FFC 4);
  (* simulate the SP update the real execution would do, then POP *)
  Cpu.set_sp cpu 0x7FF8;
  Taint_engine.set_reg e 4 Taint.clear;
  Taint_engine.set_reg e 14 Taint.clear;
  step e cpu (Insn.pop [ 4; 14 ]);
  Alcotest.check check_taint "popped r4" t_a (Taint_engine.reg e 4);
  Alcotest.check check_taint "popped lr" t_b (Taint_engine.reg e 14)

let test_rule_conditional_skipped () =
  let e, cpu = fresh () in
  (* Z is false: EQ fails, no propagation happens *)
  Taint_engine.set_reg e 1 t_a;
  step e cpu
    (Insn.Dp { cond = Insn.EQ; op = Insn.MOV; s = false; rd = 0; rn = 0;
               op2 = Insn.Reg 1 });
  Alcotest.check check_taint "skipped" Taint.clear (Taint_engine.reg e 0)

let test_rule_mul () =
  let e, cpu = fresh () in
  Taint_engine.set_reg e 1 t_a;
  Taint_engine.set_reg e 2 t_b;
  step e cpu (Insn.mul 0 1 2);
  Alcotest.check check_taint "mul unions" (Taint.union t_a t_b)
    (Taint_engine.reg e 0)

let test_rule_vfp () =
  let e, cpu = fresh () in
  Taint_engine.set_sreg e 0 t_a;
  Taint_engine.set_sreg e 1 t_b;
  step e cpu (Insn.Vdp { cond = Insn.AL; op = Insn.VADD; prec = Insn.F32; vd = 2;
                         vn = 0; vm = 1 });
  Alcotest.check check_taint "vadd unions" (Taint.union t_a t_b)
    (Taint_engine.sreg e 2);
  step e cpu (Insn.Vmov_core { cond = Insn.AL; to_core = true; rt = 3; sn = 2 });
  Alcotest.check check_taint "vmov to core" (Taint.union t_a t_b)
    (Taint_engine.reg e 3)

(* property: propagation only ever moves/unions existing tags — an engine
   with nothing tainted stays untainted under any instruction *)
let insn_gen =
  let open QCheck.Gen in
  let reg = int_bound 12 in
  oneof
    [ map3 (fun rd rn rm -> Insn.add rd rn (Insn.Reg rm)) reg reg reg;
      map2 (fun rd v -> Insn.mov rd (Insn.Imm (v land 0xFF))) reg (int_bound 255);
      map3 (fun rd rn off -> Insn.ldr rd rn (off land 0xFC)) reg reg (int_bound 255);
      map3 (fun rd rn off -> Insn.str rd rn (off land 0xFC)) reg reg (int_bound 255);
      map (fun r -> Insn.push [ r ]) reg;
      map3 (fun rd rm rs -> Insn.mul rd rm rs) reg reg reg ]

let prop_no_taint_from_nothing =
  QCheck.Test.make ~name:"no spontaneous taint" ~count:300
    (QCheck.make insn_gen ~print:Insn.to_string)
    (fun insn ->
      let e, cpu = fresh () in
      Cpu.set_sp cpu 0x8000;
      Cpu.set_reg cpu 1 0x5000;
      Insn_taint.step e cpu ~addr:0x1000 insn;
      (not (Taint_engine.any_reg_tainted e)) && Taint_engine.tainted_bytes e = 0)

(* ---- SourcePolicy ---- *)

let test_source_policy_apply () =
  let jm =
    Ndroid_dalvik.Jbuilder.native_method ~cls:"LX;" ~name:"m" ~shorty:"ILLLLL" "m"
  in
  let slots =
    [| (0, Taint.clear); (1, Taint.clear); (2, Taint.of_bits 0x202);
       (3, Taint.clear); (4, Taint.contacts); (5, Taint.sms) |]
  in
  let jc =
    { Device.jc_method = jm; jc_addr = 0x4A000100; jc_entry = 0x4A000100;
      jc_args = [||]; jc_slots = slots }
  in
  let p = Source_policy.of_jni_call jc in
  Alcotest.(check int) "stack args" 2 p.Source_policy.stack_args_num;
  Alcotest.(check bool) "tainted" true (Source_policy.any_tainted p);
  Alcotest.(check int) "access flag static|public" 0x9 p.Source_policy.access_flag;
  let e = Taint_engine.create () in
  let cpu = Cpu.create () in
  Cpu.set_sp cpu 0x9000;
  Source_policy.apply p e cpu;
  Alcotest.check check_taint "r2" (Taint.of_bits 0x202) (Taint_engine.reg e 2);
  Alcotest.check check_taint "stack slot 0" Taint.contacts
    (Taint_engine.mem e 0x9000 4);
  Alcotest.check check_taint "stack slot 1" Taint.sms (Taint_engine.mem e 0x9004 4)

let test_source_policy_table () =
  let table = Source_policy.Table.create () in
  Alcotest.(check bool) "empty" true (Source_policy.Table.find table 5 = None);
  Alcotest.(check int) "size 0" 0 (Source_policy.Table.size table)

(* ---- end-to-end detection (Table I, Sec. IV) ---- *)

let detection app =
  List.map (fun m -> (m, (H.run m app).H.detected))
    [ H.Vanilla; H.Taintdroid_only; H.Ndroid_full ]

let expect name app ~taintdroid ~ndroid =
  let row = detection app in
  Alcotest.(check bool) (name ^ ": vanilla never detects") false
    (List.assoc H.Vanilla row);
  Alcotest.(check bool) (name ^ ": TaintDroid") taintdroid
    (List.assoc H.Taintdroid_only row);
  Alcotest.(check bool) (name ^ ": NDroid") ndroid (List.assoc H.Ndroid_full row)

let test_case1 () = expect "case 1" Cases.case1 ~taintdroid:true ~ndroid:true
let test_case1' () = expect "case 1'" Cases.case1' ~taintdroid:false ~ndroid:true
let test_case2 () = expect "case 2" Cases.case2 ~taintdroid:false ~ndroid:true
let test_case3 () = expect "case 3" Cases.case3 ~taintdroid:false ~ndroid:true
let test_case4 () = expect "case 4" Cases.case4 ~taintdroid:false ~ndroid:true

let test_droidscope_matches_taintdroid_detection () =
  (* "no new information flows than TaintDroid were reported" *)
  List.iter
    (fun app ->
      let td = (H.run H.Taintdroid_only app).H.detected in
      let ds = (H.run H.Droidscope_mode app).H.detected in
      Alcotest.(check bool) app.H.app_name td ds)
    Cases.all

let test_ndroid_taint_value_case1' () =
  (* the leaked payload carries contacts|sms = 0x202 exactly (Fig. 6) *)
  let o = H.run H.Ndroid_full Cases.case1' in
  match o.H.leaks with
  | [ leak ] ->
    Alcotest.check check_taint "0x202" (Taint.of_bits 0x202)
      leak.Ndroid_android.Sink_monitor.taint
  | leaks -> Alcotest.failf "expected one leak, got %d" (List.length leaks)

let test_ndroid_stats_populated () =
  let o = H.run H.Ndroid_full Cases.case2 in
  match o.H.stats with
  | Some s ->
    Alcotest.(check bool) "a source policy was built" true (s.Ndroid.source_policies >= 1);
    Alcotest.(check bool) "and applied" true (s.Ndroid.policies_applied >= 1);
    Alcotest.(check bool) "instructions traced" true (s.Ndroid.traced_instructions > 10);
    Alcotest.(check bool) "system insns skipped from tracing" true
      (s.Ndroid.skipped_instructions = 0);
    Alcotest.(check bool) "summaries ran" true (s.Ndroid.summaries_applied >= 1);
    Alcotest.(check bool) "sink checked" true (s.Ndroid.sink_checks >= 1)
  | None -> Alcotest.fail "no stats"

let test_flow_log_mentions_source_function () =
  let o = H.run H.Ndroid_full Cases.case2 in
  Alcotest.(check bool) "SourceHandler logged" true
    (List.exists
       (fun l -> String.length l >= 13 && String.sub l 0 13 = "SourceHandler")
       o.H.flow_log)

(* ---- GC robustness: the Sec. V-B motivation for iref-keyed taint ---- *)

let test_taint_survives_gc_move () =
  let device = H.boot Cases.case1' in
  let nd = Ndroid.attach device in
  (* run only the storing half, then GC, then the fetching half *)
  let vm = Device.vm device in
  let s, t = Ndroid_dalvik.Vm.new_string vm ~taint:(Taint.of_bits 0x202) "payload" in
  ignore (Device.run device "Lcom/ndroid/demos/Case1p;" "store" [| (s, t) |]);
  Device.gc device;
  Device.gc device;
  let v, rt = Device.run device "Lcom/ndroid/demos/Case1p;" "fetch" [||] in
  Alcotest.(check string) "content" "payload"
    (Ndroid_dalvik.Vm.string_of_value vm v);
  Alcotest.check check_taint "taint survived two heap compactions"
    (Taint.of_bits 0x202) rt;
  ignore nd

(* ---- ablation wiring sanity ---- *)

let test_always_hook_scans_more () =
  let device = H.boot Cases.case1' in
  let nd = Ndroid.attach ~use_multilevel:false device in
  ignore (Device.run device "Lcom/ndroid/demos/Case1p;" "main" [||]);
  let s = Ndroid.stats nd in
  ignore s;
  (* without multilevel gating, every interpreter entry is scanned *)
  Alcotest.(check bool) "scans happened" true
    ((Device.vm device).Ndroid_dalvik.Vm.counters.Ndroid_dalvik.Vm.invokes > 0)

let test_multilevel_checks_counted () =
  let o = H.run H.Ndroid_full Cases.case3 in
  match o.H.stats with
  | Some s -> Alcotest.(check bool) "branches were checked" true (s.Ndroid.multilevel_checks > 0)
  | None -> Alcotest.fail "no stats"

let suite =
  [ Alcotest.test_case "rule: binop Rd,Rn,Rm" `Quick test_rule_binop_three_reg;
    Alcotest.test_case "rule: binop Rd,Rm" `Quick test_rule_binop_two_reg;
    Alcotest.test_case "rule: binop Rd,Rm,#imm" `Quick test_rule_binop_imm;
    Alcotest.test_case "rule: unary" `Quick test_rule_unary;
    Alcotest.test_case "rule: mov #imm clears" `Quick test_rule_mov_imm_clears;
    Alcotest.test_case "rule: mov Rm" `Quick test_rule_mov_reg;
    Alcotest.test_case "rule: LDR" `Quick test_rule_ldr;
    Alcotest.test_case "rule: LDR address taint" `Quick test_rule_ldr_address_taint;
    Alcotest.test_case "rule: STR" `Quick test_rule_str;
    Alcotest.test_case "rule: STRB byte granularity" `Quick
      test_rule_strb_byte_granularity;
    Alcotest.test_case "rule: PUSH/POP" `Quick test_rule_push_pop;
    Alcotest.test_case "rule: failed condition skips" `Quick
      test_rule_conditional_skipped;
    Alcotest.test_case "rule: MUL" `Quick test_rule_mul;
    Alcotest.test_case "rule: VFP extension" `Quick test_rule_vfp;
    Alcotest.test_case "source policy apply" `Quick test_source_policy_apply;
    Alcotest.test_case "source policy table" `Quick test_source_policy_table;
    Alcotest.test_case "detect case 1" `Quick test_case1;
    Alcotest.test_case "detect case 1'" `Quick test_case1';
    Alcotest.test_case "detect case 2" `Quick test_case2;
    Alcotest.test_case "detect case 3" `Quick test_case3;
    Alcotest.test_case "detect case 4" `Quick test_case4;
    Alcotest.test_case "DroidScope = TaintDroid detection" `Quick
      test_droidscope_matches_taintdroid_detection;
    Alcotest.test_case "case 1' leak tag is 0x202" `Quick
      test_ndroid_taint_value_case1';
    Alcotest.test_case "stats populated" `Quick test_ndroid_stats_populated;
    Alcotest.test_case "flow log has SourceHandler" `Quick
      test_flow_log_mentions_source_function;
    Alcotest.test_case "taint survives GC moves" `Quick test_taint_survives_gc_move;
    Alcotest.test_case "always-hook mode scans" `Quick test_always_hook_scans_more;
    Alcotest.test_case "multilevel checks counted" `Quick
      test_multilevel_checks_counted;
    QCheck_alcotest.to_alcotest prop_no_taint_from_nothing ]
