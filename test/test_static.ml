(* Static analysis: CFG recovery, stream disassembly roundtrips, and the
   static-vs-dynamic agreement property over the scenario apps. *)

module T = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Asm = Ndroid_arm.Asm
module Disasm = Ndroid_arm.Disasm
module Cpu = Ndroid_arm.Cpu
module B = Ndroid_dalvik.Bytecode
module Dvalue = Ndroid_dalvik.Dvalue
module H = Ndroid_apps.Harness
module Market = Ndroid_corpus.Market
module Apk = Ndroid_corpus.Apk
module Classifier = Ndroid_corpus.Classifier
module St = Ndroid_static
module P_task = Ndroid_pipeline.Task
module Analysis = Ndroid_pipeline.Analysis
module Market_exec = Ndroid_pipeline.Market_exec
module Verdict = Ndroid_report.Verdict
module Flow = Ndroid_report.Flow
module Focus = Ndroid_report.Focus

(* ---- Dalvik CFG recovery ---- *)

(*  0: const v0
    1: ifz-eq v0 -> 4
    2: const v1
    3: goto 5
    4: const-string v1
    5: return v1 *)
let diamond =
  [| B.Const (0, Dvalue.zero);
     B.Ifz (B.Eq, 0, 4);
     B.Const (1, Dvalue.zero);
     B.Goto 5;
     B.Const_string (1, "x");
     B.Return 1 |]

let test_dex_cfg_blocks () =
  let cfg = St.Dex_cfg.of_code diamond in
  let blocks = St.Dex_cfg.blocks cfg in
  Alcotest.(check (list (pair int int)))
    "diamond blocks"
    [ (0, 2); (2, 4); (4, 5); (5, 6) ]
    blocks;
  Alcotest.(check (list int)) "if successors" [ 2; 4 ] (List.sort compare (St.Dex_cfg.succs cfg 1));
  Alcotest.(check (list int)) "goto successor" [ 5 ] (St.Dex_cfg.succs cfg 3);
  Alcotest.(check (list int)) "return has no successors" [] (St.Dex_cfg.succs cfg 5)

let test_dex_cfg_reaching_defs () =
  let cfg = St.Dex_cfg.of_code diamond in
  Alcotest.(check (list int))
    "both arms reach the return"
    [ 2; 4 ]
    (List.sort compare (St.Dex_cfg.reaching_defs cfg 5 1));
  Alcotest.(check (list int))
    "v0's only def"
    [ 0 ]
    (St.Dex_cfg.reaching_defs cfg 1 0)

(* ---- native CFG recovery ---- *)

let small_lib () =
  let open Asm in
  assemble ~base:0x4a000000
    [ Label "f";
      I (Insn.cmp 0 (Insn.Imm 0));
      Br (Insn.NE, "skip");
      I (Insn.mov 0 (Insn.Imm 1));
      Label "skip";
      I Insn.bx_lr;
      Label "msg";
      Asciz "hello" ]

let test_native_cfg_blocks () =
  let cfg = St.Native_cfg.of_program ~name:"small" (small_lib ()) in
  let f = Option.get (St.Native_cfg.symbol_addr cfg "f") in
  let skip = Option.get (St.Native_cfg.symbol_addr cfg "skip") in
  let blocks = St.Native_cfg.basic_blocks cfg in
  let starts = List.map (fun (s, _, _) -> s) blocks in
  Alcotest.(check bool) "f is a leader" true (List.mem f starts);
  Alcotest.(check bool) "branch target is a leader" true (List.mem skip starts);
  let _, _, succs =
    List.find (fun (s, _, _) -> s = f) blocks
  in
  Alcotest.(check bool) "conditional branch reaches skip" true
    (List.mem skip succs)

let test_native_cfg_cstring () =
  let cfg = St.Native_cfg.of_program ~name:"small" (small_lib ()) in
  let msg = Option.get (St.Native_cfg.symbol_addr cfg "msg") in
  Alcotest.(check (option string)) "string at msg" (Some "hello")
    (St.Native_cfg.cstring_at cfg msg);
  (* data bytes live at odd addresses too: no thumb-bit clearing on reads *)
  Alcotest.(check (option string)) "string at msg+1" (Some "ello")
    (St.Native_cfg.cstring_at cfg (msg + 1));
  Alcotest.(check (option string)) "out of image" None
    (St.Native_cfg.cstring_at cfg 0x100)

(* ---- random stream disassembly roundtrips ---- *)

let arm_insn_gen =
  let open QCheck.Gen in
  let reg = int_bound 14 in
  let op2 =
    oneof
      [ map (fun r -> Insn.Reg r) reg;
        map (fun b -> Insn.Imm (b land 0xFF)) (int_bound 255);
        map3
          (fun r k n -> Insn.Reg_shift_imm (r, k, n))
          reg
          (oneofl [ Insn.LSL; Insn.LSR; Insn.ASR; Insn.ROR ])
          (int_range 1 31) ]
  in
  let dp =
    let op =
      oneofl
        [ Insn.AND; Insn.EOR; Insn.SUB; Insn.ADD; Insn.ORR; Insn.BIC;
          Insn.MOV; Insn.MVN ]
    in
    map3
      (fun op (rd, rn) (op2, s) ->
        Insn.Dp
          { cond = Insn.AL; op; s; rd;
            rn = (if Insn.is_move_op op then 0 else rn); op2 })
      op (pair reg reg) (pair op2 bool)
  in
  let mem =
    map3
      (fun (rd, rn) off load ->
        Insn.Mem
          { cond = Insn.AL; load; width = Insn.Word; rd; rn;
            offset = Insn.Off_imm off; pre = true; writeback = false })
      (pair reg reg)
      (int_range (-255) 255)
      bool
  in
  let branch =
    map2
      (fun offset link -> Insn.B { cond = Insn.AL; link; offset })
      (int_range (-500) 500)
      bool
  in
  oneof [ dp; dp; mem; branch ]

let thumb_insn_gen =
  let open QCheck.Gen in
  let reg = int_bound 7 in
  let imm8 = int_bound 255 in
  oneof
    [ map2 (fun rd k -> Insn.movs rd (Insn.Imm k)) reg imm8;
      map2 (fun rd k -> Insn.adds rd rd (Insn.Imm k)) reg imm8;
      map2 (fun rd k -> Insn.subs rd rd (Insn.Imm k)) reg imm8;
      map2 (fun rd k -> Insn.cmp rd (Insn.Imm k)) reg imm8;
      map2
        (fun rd n ->
          Insn.Dp
            { cond = Insn.AL; op = Insn.MOV; s = true; rd; rn = 0;
              op2 = Insn.Reg_shift_imm (rd, Insn.LSL, n) })
        reg (int_range 1 31);
      (* 32-bit Thumb BL *)
      map
        (fun offset -> Insn.B { cond = Insn.AL; link = true; offset })
        (int_range (-1000) 1000) ]

let stream_roundtrip mode insns =
  let prog =
    Asm.assemble ~mode ~base:0x4a000000 (List.map (fun i -> Asm.I i) insns)
  in
  let lines = Disasm.program prog in
  List.length lines = List.length insns
  && List.for_all2
       (fun (l : Disasm.line) i -> l.Disasm.l_insn = Some i)
       lines insns

let prop_arm_stream_roundtrip =
  QCheck.Test.make ~name:"ARM stream: assemble -> disassemble" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 20) arm_insn_gen)
       ~print:(fun l -> String.concat "; " (List.map Insn.to_string l)))
    (fun insns -> stream_roundtrip Cpu.Arm insns)

let prop_thumb_stream_roundtrip =
  QCheck.Test.make ~name:"Thumb stream: assemble -> disassemble (incl. BL)"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 20) thumb_insn_gen)
       ~print:(fun l -> String.concat "; " (List.map Insn.to_string l)))
    (fun insns -> stream_roundtrip Cpu.Thumb insns)

(* ---- static vs. dynamic agreement over the scenario apps ---- *)

let e3_apps () =
  Ndroid_apps.Cases.all @ Ndroid_apps.Case_studies.all
  @ Ndroid_apps.Polymorphic.variants

let static_flagged (app : H.app) =
  let v = St.Drive.verdict_of_app app in
  if app.H.expected_sink = "" then St.Analyzer.flagged v
  else St.Analyzer.flagged_at v app.H.expected_sink

let test_agreement () =
  List.iter
    (fun (app : H.app) ->
      let dynamic = (H.run H.Ndroid_full app).H.detected in
      if dynamic then
        Alcotest.(check bool)
          (Printf.sprintf "%s: dynamically detected => statically flagged"
             app.H.app_name)
          true (static_flagged app))
    (e3_apps ())

let test_evasion_statically_flagged () =
  let app = Ndroid_apps.Evasion.app in
  Alcotest.(check bool) "dynamic NDroid misses the evasion app (by design)"
    false
    (H.run H.Ndroid_full app).H.detected;
  Alcotest.(check bool) "static control-flow taint flags it" true
    (St.Analyzer.flagged (St.Drive.verdict_of_app app))

let test_flow_contexts () =
  (* case4 leaks from native code (sendto); case3 hands the data back to
     Java which sends it — the verdicts must keep the contexts apart *)
  let case4 = List.find (fun a -> a.H.app_name = "case4") Ndroid_apps.Cases.all in
  let v4 = St.Drive.verdict_of_app case4 in
  Alcotest.(check bool) "case4 flags a native sendto flow" true
    (List.exists
       (fun (f : St.Flow.t) ->
         f.St.Flow.f_sink = "sendto" && f.St.Flow.f_context = St.Flow.Native_ctx)
       (St.Analyzer.flows v4));
  let case3 = List.find (fun a -> a.H.app_name = "case3") Ndroid_apps.Cases.all in
  let v3 = St.Drive.verdict_of_app case3 in
  Alcotest.(check bool) "case3 flags a Java-context Socket.send flow" true
    (List.exists
       (fun (f : St.Flow.t) ->
         f.St.Flow.f_sink = "Socket.send"
         && f.St.Flow.f_context = St.Flow.Java_ctx)
       (St.Analyzer.flows v3))

let test_clean_apps_stay_clean () =
  (* the Sec. VI batch mixes one real leaker (ePhone) with benign apps;
     the benign ones — dynamically clean — must not be flagged statically *)
  List.iter
    (fun (app : H.app) ->
      if not (H.run H.Ndroid_full app).H.detected then
        Alcotest.(check bool)
          (Printf.sprintf "%s stays clean" app.H.app_name)
          false
          (St.Analyzer.flagged (St.Drive.verdict_of_app app)))
    Ndroid_apps.Sec6_batch.apps

(* ---- market slice: APK-level soundness and classifier agreement ---- *)

let test_market_soundness () =
  let params = Market.scaled 300 in
  let leaky = ref 0 and missed = ref 0 in
  Seq.iter
    (fun model ->
      if Market.app_is_leaky model then begin
        incr leaky;
        let v = St.Analyzer.analyze_apk (Apk.of_app_model model) in
        if not (St.Analyzer.flagged v) then incr missed
      end)
    (Market.generate params);
  Alcotest.(check bool) "slice contains leaky apps" true (!leaky > 0);
  Alcotest.(check int) "no leaky market app statically missed" 0 !missed

let test_classifier_agreement () =
  let params = Market.scaled 150 in
  Seq.iter
    (fun model ->
      let symbolic = Classifier.classify model in
      let binary = Apk.classify (Apk.of_app_model model) in
      Alcotest.(check string) "symbolic and artifact-level verdicts agree"
        (Classifier.classification_name symbolic)
        (Classifier.classification_name binary))
    (Market.generate params)

(* ---- hybrid: slice soundness and verdict agreement ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn > 0 && nn <= nh
  &&
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* a provenance hop that names a java->native crossing must name one the
   static slice put in the focus set — otherwise the focused dynamic pass
   could have slept through the very crossing that leaked.  Upcall
   (native->java) hops are exempt: tracking is already active by the time
   a focused native calls back into Java, so they never gate anything. *)
let hop_in_focus (focus : Focus.t) (h : Flow.hop) =
  h.Flow.h_kind <> "jni"
  || not (contains h.Flow.h_site "(java->native)")
  || List.exists (contains h.Flow.h_site)
       (focus.Focus.natives @ focus.Focus.methods @ focus.Focus.crossings)

let flow_keys r =
  List.sort_uniq compare
    (List.map Flow.key (Verdict.flows r.Verdict.r_verdict))

(* Slice soundness, generatively: for a random market app (random slice
   seed, random id), the dynamic pass gated on the static focus set must
   observe exactly the flows the ungated pass observes, and any
   dynamically observed flow implies a static flag with a usable focus
   set.  Each draw also exercises the nearest leaky app so the property
   is never vacuously checked on clean apps only. *)
let slice_sound params id =
  let model = Market.app params id in
  let v = St.Analyzer.analyze_apk (Apk.of_app_model model) in
  let full = Market_exec.run model in
  let focused = Market_exec.run ~focus:v.St.Analyzer.v_focus model in
  flow_keys focused = flow_keys full
  && (flow_keys full = []
     || (St.Analyzer.flagged v && not (Focus.is_empty v.St.Analyzer.v_focus)))
  && List.for_all
       (fun (f : Flow.t) ->
         List.for_all (hop_in_focus v.St.Analyzer.v_focus) f.Flow.f_hops)
       (Verdict.flows focused.Verdict.r_verdict)

let prop_slice_soundness =
  QCheck.Test.make
    ~name:"slice soundness: focused dynamic observes every flow" ~count:25
    (QCheck.make
       ~print:(fun (id, seed) -> Printf.sprintf "id=%d seed=%d" id seed)
       QCheck.Gen.(pair (int_range 0 599) (int_range 0 9999)))
    (fun (id, seed) ->
      let params = { Market.total = 600; seed; type1_permille = None } in
      let rec leaky_id i tries =
        if tries = 0 then None
        else if Market.app_is_leaky (Market.app params i) then Some i
        else leaky_id ((i + 1) mod 600) (tries - 1)
      in
      slice_sound params id
      && (match leaky_id id 600 with
         | Some i -> slice_sound params i
         | None -> true))

(* hybrid must agree with --both verdict-for-verdict: same flags, same
   flows, over the bundled registry and a market slice *)
let test_hybrid_agreement () =
  let check_task name task_of_mode =
    let both = Analysis.run (task_of_mode P_task.Both) in
    let hybrid = Analysis.run (task_of_mode P_task.Hybrid) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: hybrid and both agree on flagged" name)
      (Verdict.flagged both.Verdict.r_verdict)
      (Verdict.flagged hybrid.Verdict.r_verdict);
    Alcotest.(check bool)
      (Printf.sprintf "%s: hybrid and both agree on flows" name)
      true
      (Verdict.equal both.Verdict.r_verdict hybrid.Verdict.r_verdict)
  in
  List.iter
    (fun (app : H.app) ->
      check_task app.H.app_name (fun mode ->
          { P_task.t_id = 0; t_subject = P_task.Bundled app.H.app_name;
            t_mode = mode; t_fault = None }))
    Ndroid_apps.Registry.all;
  let params = Market.scaled 300 in
  List.iter
    (fun id ->
      check_task
        (Printf.sprintf "market[%d]" id)
        (fun mode -> List.nth (P_task.of_market_slice ~mode params) id))
    (List.init 300 Fun.id)

(* every bundled dynamic detection's provenance stays inside the focus
   set the static slice computed for that app *)
let test_bundled_hops_in_focus () =
  List.iter
    (fun (app : H.app) ->
      let dyn =
        Analysis.run
          { P_task.t_id = 0; t_subject = P_task.Bundled app.H.app_name;
            t_mode = P_task.Dynamic; t_fault = None }
      in
      match dyn.Verdict.r_verdict with
      | Verdict.Flagged flows ->
        let v = St.Drive.verdict_of_app app in
        let focus = v.St.Analyzer.v_focus in
        Alcotest.(check bool)
          (Printf.sprintf "%s: flagged app has a non-empty focus set"
             app.H.app_name)
          false (Focus.is_empty focus);
        List.iter
          (fun (f : Flow.t) ->
            List.iter
              (fun (h : Flow.hop) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: jni hop %S within focus set"
                     app.H.app_name h.Flow.h_site)
                  true (hop_in_focus focus h))
              f.Flow.f_hops)
          flows
      | _ -> ())
    Ndroid_apps.Registry.all

(* ---- the host-function catalogue on packed bytes and on vfprintf ---- *)

let test_packed_bytes_flagged () =
  (* from the bytes [ndroid pack] writes, calls out of an app's libraries
     resolve against the same catalogue as from its harness form *)
  List.iter
    (fun (app : H.app) ->
      if St.Analyzer.flagged (St.Drive.verdict_of_app app) then
        Alcotest.(check bool)
          (app.H.app_name ^ " flagged from its packed bytes")
          true
          (St.Analyzer.flagged (St.Analyzer.analyze_apk (St.Drive.apk_of_app app))))
    Ndroid_apps.Registry.all

let vfprintf_app : H.app =
  let module J = Ndroid_dalvik.Jbuilder in
  let cls = "Lcom/ndroid/demos/Vfprintf;" in
  let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm)) in
  let lib extern =
    Asm.assemble ~extern ~base:Ndroid_emulator.Layout.app_lib_base
      [ Asm.Label "leak";
        Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
        (* chars = GetStringUTFChars(env, data, NULL) *)
        mov 1 2;
        Asm.I (Insn.mov 2 (Insn.Imm 0));
        Asm.Call "GetStringUTFChars";
        mov 4 0;
        (* vfprintf(fopen(path, "a"), "%s", chars) *)
        Asm.La (0, "path");
        Asm.La (1, "mode");
        Asm.Call "fopen";
        mov 5 0;
        Asm.La (1, "fmt");
        mov 2 4;
        Asm.Call "vfprintf";
        mov 0 5;
        Asm.Call "fclose";
        Asm.I (Insn.mov 0 (Insn.Imm 0));
        Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
        Asm.Align4;
        Asm.Label "path";
        Asm.Asciz "/sdcard/.vf";
        Asm.Label "mode";
        Asm.Asciz "a";
        Asm.Label "fmt";
        Asm.Asciz "%s" ]
  in
  { H.app_name = "vfprintf";
    app_case = "case 2";
    description = "IMEI -> native vfprintf into a file";
    classes =
      [ J.class_ ~name:cls ~super:"Ljava/lang/Object;"
          [ J.native_method ~cls ~name:"leak" ~shorty:"IL" "leak";
            J.method_ ~cls ~name:"main" ~shorty:"V"
              [ J.I
                  (B.Invoke
                     ( B.Static,
                       { B.m_class = "Landroid/telephony/TelephonyManager;";
                         m_name = "getDeviceId" },
                       [] ));
                J.I (B.Move_result 0);
                J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "leak" }, [ 0 ]));
                J.I B.Return_void ] ] ];
    build_libs = (fun extern -> [ ("vfprintf", lib extern) ]);
    entry = (cls, "main");
    expected_sink = "fprintf" }

let test_vfprintf_sink () =
  (* the row's sink mark is one column for both analyses, and both report
     the leak as fprintf *)
  Alcotest.(check bool) "flagged statically at fprintf" true
    (St.Analyzer.flagged_at (St.Drive.verdict_of_app vfprintf_app) "fprintf");
  Alcotest.(check bool) "detected by NDroid" true
    (H.run H.Ndroid_full vfprintf_app).H.detected

let suite =
  [ Alcotest.test_case "dex cfg: diamond blocks" `Quick test_dex_cfg_blocks;
    Alcotest.test_case "dex cfg: reaching defs" `Quick test_dex_cfg_reaching_defs;
    Alcotest.test_case "native cfg: block recovery" `Quick test_native_cfg_blocks;
    Alcotest.test_case "native cfg: cstring reads" `Quick test_native_cfg_cstring;
    Alcotest.test_case "static/dynamic agreement (E3 apps)" `Quick test_agreement;
    Alcotest.test_case "evasion app flagged statically" `Quick
      test_evasion_statically_flagged;
    Alcotest.test_case "flow contexts" `Quick test_flow_contexts;
    Alcotest.test_case "benign batch stays clean" `Quick
      test_clean_apps_stay_clean;
    Alcotest.test_case "market slice soundness" `Quick test_market_soundness;
    Alcotest.test_case "classifier agreement" `Quick test_classifier_agreement;
    Alcotest.test_case "hybrid agrees with both" `Quick test_hybrid_agreement;
    Alcotest.test_case "bundled provenance within focus" `Quick
      test_bundled_hops_in_focus;
    QCheck_alcotest.to_alcotest prop_arm_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_thumb_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_slice_soundness;
    Alcotest.test_case "registry flagged from packed bytes" `Quick
      test_packed_bytes_flagged;
    Alcotest.test_case "vfprintf is a sink to both analyses" `Quick
      test_vfprintf_sink ]
