(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus the ablations
   and a Bechamel micro-benchmark suite (one Test.make per table/figure).
   Nothing here gates speed or correctness: the repository benchmark
   (perfbench/, judged in base/head pairs by bench/paired.py) measures
   speed, and the test suite (dune runtest) holds every check.

   Usage:
     dune exec bench/main.exe            # every experiment
     dune exec bench/main.exe e3 e8      # selected experiments
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks only
*)

module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Asm = Ndroid_arm.Asm
module Layout = Ndroid_emulator.Layout
module Machine = Ndroid_emulator.Machine
module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module A = Ndroid_android
module Ndroid = Ndroid_core.Ndroid
module Droidscope = Ndroid_core.Droidscope
module Insn_taint = Ndroid_emulator.Insn_taint
module Taint_engine = Ndroid_emulator.Taint_engine
module Taintdroid = Ndroid_taintdroid.Taintdroid
module Market = Ndroid_corpus.Market
module Stats = Ndroid_corpus.Stats
module H = Ndroid_apps.Harness
module Cases = Ndroid_apps.Cases
module CS = Ndroid_apps.Case_studies
module CF = Ndroid_apps.Cfbench

let section title = Printf.printf "\n=== %s ===\n%!" title
let now () = Unix.gettimeofday ()

(* median-of-n wall time with one warmup *)
let time_median ?(runs = 3) f =
  ignore (f ());
  let samples =
    List.init runs (fun _ ->
        let t0 = now () in
        ignore (f ());
        now () -. t0)
  in
  List.nth (List.sort compare samples) (runs / 2)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ E1 -- *)

let e1 () =
  section "E1: JNI-usage study, Sec. III headline numbers (227,911 apps)";
  let t0 = now () in
  let s = Stats.summarize (Market.generate Market.default_params) in
  Printf.printf "(classified %d apps in %.1fs)\n" s.Stats.total (now () -. t0);
  Format.printf "%a" Stats.pp_summary s;
  Printf.printf "\npaper vs measured:\n";
  let row name paper measured =
    Printf.printf "  %-28s paper=%-22s measured=%s\n" name paper measured
  in
  row "apps crawled" "227,911" (string_of_int s.Stats.total);
  row "Type I" "37,506 (16.46%)"
    (Printf.sprintf "%d (%.2f%%)" s.Stats.type1 s.Stats.type1_pct);
  row "Type I w/o libs" "4,034" (string_of_int s.Stats.type1_no_libs);
  row "  of which AdMob" "48.1%"
    (Printf.sprintf "%.1f%%" s.Stats.admob_pct_of_no_libs);
  row "Type II" "1,738" (string_of_int s.Stats.type2);
  row "Type II loadable" "394" (string_of_int s.Stats.type2_loadable);
  row "Type III" "16 (11 game, 5 ent.)"
    (Printf.sprintf "%d (%d game, %d ent.)" s.Stats.type3 s.Stats.type3_game
       s.Stats.type3_entertainment);
  (* the introduction's prevalence trend across published measurements *)
  Printf.printf "\nnative-code prevalence trend (Sec. I):\n";
  Printf.printf "  %-18s %-22s %-26s %10s %10s\n" "corpus" "crawled" "source"
    "published" "measured";
  List.iter
    (fun p ->
      let s = Stats.summarize (Market.generate (Market.of_preset p)) in
      Printf.printf "  %-18s %-22s %-26s %9.2f%% %9.2f%%\n" p.Market.p_name
        p.Market.p_when p.Market.p_source
        (float_of_int p.Market.p_type1_permille /. 10.0)
        s.Stats.type1_pct)
    Market.presets

(* ------------------------------------------------------------------ E2 -- *)

let e2 () =
  section "E2: Fig. 2 — Type I category distribution";
  let s = Stats.summarize (Market.generate Market.default_params) in
  Format.printf "%a" Stats.pp_fig2 s;
  Printf.printf "paper: Game 42%%; Music And Audio / Personalization 5%%; ";
  Printf.printf "Communication / Entertainment / Tools 4%%; long tail of 2-3%%\n"

(* ------------------------------------------------------------------ E3 -- *)

let e3 () =
  section "E3: Table I — detection matrix across JNI flow cases";
  Printf.printf "%-16s %-10s %-12s %-12s %-8s  %s\n" "app" "vanilla" "TaintDroid"
    "DroidScope" "NDroid" "paper (TaintDroid / NDroid)";
  let expected = function
    | "case1" -> "detect / detect"
    | _ -> "miss   / detect"
  in
  List.iter
    (fun app ->
      let d mode = if (H.run mode app).H.detected then "detect" else "miss" in
      Printf.printf "%-16s %-10s %-12s %-12s %-8s  %s\n%!" app.H.app_name
        (d H.Vanilla) (d H.Taintdroid_only) (d H.Droidscope_mode) (d H.Ndroid_full)
        (expected app.H.app_name))
    (Cases.all @ CS.all)

(* --------------------------------------------------------------- E4-E7 -- *)

let case_study title app show =
  section title;
  Printf.printf "%s\n" app.H.description;
  let o = H.run H.Ndroid_full app in
  Printf.printf "detected by NDroid: %b | by TaintDroid: %b\n" o.H.detected
    (H.run H.Taintdroid_only app).H.detected;
  List.iter
    (fun l -> Format.printf "  leak: %a@." A.Sink_monitor.pp_leak l)
    o.H.leaks;
  show o;
  Printf.printf "--- NDroid flow log ---\n";
  List.iter (fun l -> Printf.printf "  %s\n" l) o.H.flow_log

let clip s n = String.sub s 0 (min n (String.length s))

let e4 () =
  case_study "E4: QQPhoneBook 3.5 (Fig. 6, case 1')" CS.qq_phonebook (fun o ->
      List.iter
        (fun t ->
          Printf.printf "  sent to %s: %s\n" t.A.Network.dest
            (clip t.A.Network.payload 70))
        o.H.transmissions)

let e5 () =
  case_study "E5: ePhone 3.3 (Fig. 7, case 2)" CS.ephone (fun o ->
      List.iter
        (fun t ->
          Printf.printf "  sendto %s: %s\n" t.A.Network.dest
            (clip t.A.Network.payload 70))
        o.H.transmissions)

let e6 () =
  case_study "E6: PoC of case 2 (Fig. 8)" CS.poc_case2 (fun o ->
      Printf.printf "  /sdcard/CONTACTS: %S\n"
        (A.Filesystem.contents (Device.fs o.H.device) "/sdcard/CONTACTS"))

let e7 () =
  case_study "E7: PoC of case 3 (Fig. 9)" CS.poc_case3 (fun o ->
      List.iter
        (fun t -> Printf.printf "  sent to %s\n" t.A.Network.dest)
        o.H.transmissions)

(* ------------------------------------------------------------------ E8 -- *)

let fig10_paper =
  [ ("Native MIPS", 85.17); ("Java MIPS", 1.48); ("Native MSFLOPS", 16.62);
    ("Java MSFLOPS", 1.33); ("Native MDFLOPS", 10.37); ("Java MDFLOPS", 1.03);
    ("Native MALLOCS", 1.03); ("Native Memory Read", 49.86);
    ("Java Memory Read", 1.24); ("Native Memory Write", 49.83);
    ("Java Memory Write", 2.22); ("Native Disk Read", 1.05);
    ("Native Disk Write", 1.17) ]

let run_workload mode (w : CF.workload) ~iterations =
  let device = H.boot CF.app in
  CF.prepare device;
  (match mode with
   | H.Vanilla -> Taintdroid.vanilla device
   | H.Taintdroid_only -> Taintdroid.attach device
   | H.Droidscope_mode -> Droidscope.attach device
   | H.Ndroid_full -> ignore (Ndroid.attach device));
  time_median (fun () -> w.CF.w_run device ~iterations)

let e8 () =
  section "E8: Fig. 10 — CF-Bench overhead (slowdown vs vanilla)";
  Printf.printf "%-22s %10s %10s %10s   %s\n" "workload" "NDroid" "DroidScope"
    "TaintDroid" "paper NDroid";
  let iters_native = 12000 and iters_java = 40000 in
  let rows =
    List.map
      (fun (w : CF.workload) ->
        let iterations =
          match w.CF.w_kind with CF.Native -> iters_native | CF.Java -> iters_java
        in
        let v = run_workload H.Vanilla w ~iterations in
        let ratio mode = run_workload mode w ~iterations /. v in
        let nd = ratio H.Ndroid_full
        and ds = ratio H.Droidscope_mode
        and td = ratio H.Taintdroid_only in
        let paper =
          match List.assoc_opt w.CF.w_name fig10_paper with
          | Some p -> Printf.sprintf "%.2fx" p
          | None -> "-"
        in
        Printf.printf "%-22s %9.2fx %9.2fx %9.2fx   %s\n%!" w.CF.w_name nd ds td
          paper;
        (w.CF.w_kind, nd, ds))
      CF.workloads
  in
  let nd_of (_, nd, _) = nd and ds_of (_, _, ds) = ds in
  let native = List.filter (fun (k, _, _) -> k = CF.Native) rows
  and java = List.filter (fun (k, _, _) -> k = CF.Java) rows in
  Printf.printf "%-22s %9.2fx %9.2fx %10s   paper 12.08x\n"
    "Native Score (geomean)"
    (geomean (List.map nd_of native))
    (geomean (List.map ds_of native))
    "-";
  Printf.printf "%-22s %9.2fx %9.2fx %10s   paper 1.10x\n" "Java Score (geomean)"
    (geomean (List.map nd_of java))
    (geomean (List.map ds_of java))
    "-";
  Printf.printf "%-22s %9.2fx %9.2fx %10s   paper 5.45x / >= 11x\n"
    "Overall Score (geomean)"
    (geomean (List.map nd_of rows))
    (geomean (List.map ds_of rows))
    "-";
  Printf.printf
    "\nshape checks: NDroid(native) > NDroid(java): %b | DroidScope > NDroid \
     everywhere: %b\n"
    (geomean (List.map nd_of native) > geomean (List.map nd_of java))
    (List.for_all (fun r -> ds_of r > nd_of r) rows)

(* ------------------------------------------------------------------ E9 -- *)

let e9 () =
  section "E9: Table V — taint propagation logic verification";
  let t_a = Taint.imei and t_b = Taint.sms in
  let fresh () = (Taint_engine.create (), Cpu.create ()) in
  let verify name f =
    let ok = f () in
    Printf.printf "  %-26s %s\n" name (if ok then "VERIFIED" else "FAILED");
    ok
  in
  let checks =
    [ verify "binary-op Rd, Rn, Rm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 1 t_a;
          Taint_engine.set_reg e 2 t_b;
          Insn_taint.step e cpu ~addr:0 (Insn.add 0 1 (Insn.Reg 2));
          Taint.equal (Taint_engine.reg e 0) (Taint.union t_a t_b));
      verify "binary-op Rd, Rm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 0 t_a;
          Taint_engine.set_reg e 1 t_b;
          Insn_taint.step e cpu ~addr:0 (Insn.orr 0 0 (Insn.Reg 1));
          Taint.equal (Taint_engine.reg e 0) (Taint.union t_a t_b));
      verify "binary-op Rd, Rm, #imm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 1 t_a;
          Insn_taint.step e cpu ~addr:0 (Insn.sub 0 1 (Insn.Imm 3));
          Taint.equal (Taint_engine.reg e 0) t_a);
      verify "unary Rd, Rm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 1 t_a;
          Insn_taint.step e cpu ~addr:0 (Insn.mvn 0 (Insn.Reg 1));
          Taint.equal (Taint_engine.reg e 0) t_a);
      verify "mov Rd, #imm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 0 t_a;
          Insn_taint.step e cpu ~addr:0 (Insn.mov 0 (Insn.Imm 9));
          Taint.is_clear (Taint_engine.reg e 0));
      verify "mov Rd, Rm" (fun () ->
          let e, cpu = fresh () in
          Taint_engine.set_reg e 1 t_b;
          Insn_taint.step e cpu ~addr:0 (Insn.mov 0 (Insn.Reg 1));
          Taint.equal (Taint_engine.reg e 0) t_b);
      verify "LDR* (incl. t(Rn))" (fun () ->
          let e, cpu = fresh () in
          Cpu.set_reg cpu 1 0x5000;
          Taint_engine.set_mem e 0x5004 4 t_a;
          Taint_engine.set_reg e 1 t_b;
          Insn_taint.step e cpu ~addr:0 (Insn.ldr 0 1 4);
          Taint.equal (Taint_engine.reg e 0) (Taint.union t_a t_b));
      verify "LDM(POP)" (fun () ->
          let e, cpu = fresh () in
          Cpu.set_sp cpu 0x8000;
          Taint_engine.set_mem e 0x8000 4 t_a;
          Taint_engine.set_mem e 0x8004 4 t_b;
          Insn_taint.step e cpu ~addr:0 (Insn.pop [ 4; 5 ]);
          Taint.equal (Taint_engine.reg e 4) t_a
          && Taint.equal (Taint_engine.reg e 5) t_b);
      verify "STR*" (fun () ->
          let e, cpu = fresh () in
          Cpu.set_reg cpu 1 0x6000;
          Taint_engine.set_reg e 0 t_a;
          Insn_taint.step e cpu ~addr:0 (Insn.str 0 1 0);
          Taint.equal (Taint_engine.mem e 0x6000 4) t_a);
      verify "STM(PUSH)" (fun () ->
          let e, cpu = fresh () in
          Cpu.set_sp cpu 0x8000;
          Taint_engine.set_reg e 4 t_a;
          Insn_taint.step e cpu ~addr:0 (Insn.push [ 4 ]);
          Taint.equal (Taint_engine.mem e 0x7FFC 4) t_a) ]
  in
  Printf.printf "table rows verified: %d/%d\n"
    (List.length (List.filter Fun.id checks))
    (List.length checks);
  Printf.printf "\nTable V as implemented:\n";
  List.iter
    (fun (fmt, sem, rule) -> Printf.printf "  %-26s %-34s %s\n" fmt sem rule)
    Insn_taint.rules_table

(* ----------------------------------------------------------------- E10 -- *)

let e10 () =
  section "E10: Tables VI & VII — modeled functions and hooked calls";
  let device = Device.create () in
  let machine = Device.machine device in
  let mounted name =
    match Machine.host_fn_addr machine name with
    | _ -> true
    | exception Not_found -> false
  in
  let show title names =
    Printf.printf "%s (%d):\n " title (List.length names);
    List.iteri
      (fun i n ->
        if i > 0 && i mod 6 = 0 then Printf.printf "\n ";
        Printf.printf " %-12s%s" n (if mounted n then "" else "(MISSING)"))
      names;
    Printf.printf "\n"
  in
  show "Table VI libc (modeled taint summaries)" A.Syscalls.modeled_libc;
  show "Table VI libm" A.Syscalls.modeled_libm;
  show "Table VII hooked calls" A.Syscalls.hooked;
  Printf.printf "native-context sinks (* in Table VII): %s\n"
    (String.concat ", " A.Syscalls.sinks);
  (* behavioural spot-check: a tainted memcpy propagates, a tainted send is
     caught *)
  let nd = Ndroid.attach device in
  let engine = Ndroid.engine nd in
  let mem = Machine.mem machine in
  Ndroid_arm.Memory.write_cstring mem 0x30000000 "secret";
  Taint_engine.add_mem engine 0x30000000 7 Taint.imei;
  let memcpy = Machine.host_fn_addr machine "memcpy" in
  ignore
    (Machine.call_native machine ~addr:memcpy
       ~args:[ 0x30000100; 0x30000000; 7 ] ());
  Printf.printf "memcpy summary propagates taint: %b\n"
    (Taint.is_tainted (Taint_engine.mem engine 0x30000100 7));
  let sock = Machine.host_fn_addr machine "socket" in
  let fd, _ = Machine.call_native machine ~addr:sock ~args:[ 2; 1; 0 ] () in
  Ndroid_arm.Memory.write_cstring mem 0x30000200 "evil.example";
  let connect = Machine.host_fn_addr machine "connect" in
  ignore (Machine.call_native machine ~addr:connect ~args:[ fd; 0x30000200; 0 ] ());
  let send = Machine.host_fn_addr machine "send" in
  ignore (Machine.call_native machine ~addr:send ~args:[ fd; 0x30000100; 7; 0 ] ());
  Printf.printf "tainted send reported as leak: %b\n"
    (A.Sink_monitor.leak_count (Device.monitor device) > 0)

(* ------------------------------------------------------------------ A1 -- *)

let a1 () =
  section "A1 (ablation): hot-instruction decode cache (Sec. V-C)";
  let run cache_enabled =
    let device = H.boot CF.app in
    Taintdroid.vanilla device;
    Machine.set_icache_enabled (Device.machine device) cache_enabled;
    time_median (fun () ->
        (List.hd CF.workloads).CF.w_run device ~iterations:20000)
  in
  let with_cache = run true and without = run false in
  Printf.printf "native MIPS, cache on:  %.4fs\n" with_cache;
  Printf.printf "native MIPS, cache off: %.4fs\n" without;
  Printf.printf "speedup from caching: %.2fx\n" (without /. with_cache)

(* ------------------------------------------------------------------ A2 -- *)

(* an invoke-heavy Java workload: with multilevel hooking none of these
   interpreter entries is instrumented, without it all of them are *)
let a2_cls = "Lcom/bench/Invokes;"

let a2_app : H.app =
  { H.app_name = "invoke-heavy";
    app_case = "ablation";
    description = "Java method invocation churn";
    classes =
      [ J.class_ ~name:a2_cls
          [ J.method_ ~cls:a2_cls ~name:"leaf" ~shorty:"II" ~registers:4
              [ J.I (B.Binop_lit (B.Add, 0, 3, 1l)); J.I (B.Return 0) ];
            J.method_ ~cls:a2_cls ~name:"churn" ~shorty:"II" ~registers:6
              [ J.I (B.Const (0, Dvalue.Int 0l));
                J.L "loop";
                J.Ifz_l (B.Le, 5, "done");
                J.I
                  (B.Invoke (B.Static, { B.m_class = a2_cls; m_name = "leaf" },
                             [ 0 ]));
                J.I (B.Move_result 0);
                J.I (B.Binop_lit (B.Sub, 5, 5, 1l));
                J.Goto_l "loop";
                J.L "done";
                J.I (B.Return 0) ] ] ];
    build_libs = (fun _ -> []);
    entry = (a2_cls, "churn");
    expected_sink = "" }

let a2 () =
  section "A2 (ablation): multilevel hooking vs hooking every dvmInterpret";
  let run use_multilevel =
    let device = H.boot a2_app in
    let nd = Ndroid.attach ~use_multilevel device in
    let dt =
      time_median (fun () ->
          ignore
            (Device.run device a2_cls "churn"
               [| (Dvalue.Int 60000l, Taint.clear) |]))
    in
    (dt, Ndroid.stats nd)
  in
  let t_ml, s_ml = run true in
  let t_always, _ = run false in
  Printf.printf "multilevel hooking:           %.4fs (chain checks: %d)\n" t_ml
    s_ml.Ndroid.multilevel_checks;
  Printf.printf "hook every interpreter entry: %.4fs\n" t_always;
  Printf.printf "overhead avoided by multilevel hooking: %.1f%%\n"
    (100.0 *. (t_always -. t_ml) /. t_always)

(* ------------------------------------------------------------------ A3 -- *)

(* modeled memcpy vs a guest-code memcpy traced instruction by instruction *)
let a3_cls = "Lcom/bench/Copy;"

let a3_app : H.app =
  { H.app_name = "memcpy-heavy";
    app_case = "ablation";
    description = "copy loop, modeled vs traced";
    classes =
      [ J.class_ ~name:a3_cls
          [ J.native_method ~cls:a3_cls ~name:"copyModeled" ~shorty:"II"
              "copyModeled";
            J.native_method ~cls:a3_cls ~name:"copyTraced" ~shorty:"II"
              "copyTraced" ] ];
    build_libs =
      (fun extern ->
        let open Asm in
        let items =
          [ (* for n iterations: memcpy(dst, src, 64) through libc *)
            Label "copyModeled";
            I (Insn.push [ Insn.r4; Insn.lr ]);
            I (Insn.mov 4 (Insn.Reg 2));
            Label "cm_loop";
            La (0, "dstbuf");
            La (1, "srcbuf");
            I (Insn.mov 2 (Insn.Imm 64));
            Call "memcpy";
            I (Insn.subs 4 4 (Insn.Imm 1));
            Br (Insn.NE, "cm_loop");
            I (Insn.mov 0 (Insn.Imm 0));
            I (Insn.pop [ Insn.r4; Insn.pc ]);
            (* same copy as a guest-code word loop (traced per insn) *)
            Label "copyTraced";
            I (Insn.push [ Insn.r4; Insn.lr ]);
            I (Insn.mov 4 (Insn.Reg 2));
            Label "ct_outer";
            La (0, "dstbuf");
            La (1, "srcbuf");
            I (Insn.mov 2 (Insn.Imm 16));
            Label "ct_inner";
            I (Insn.ldr 3 1 0);
            I (Insn.str 3 0 0);
            I (Insn.add 0 0 (Insn.Imm 4));
            I (Insn.add 1 1 (Insn.Imm 4));
            I (Insn.subs 2 2 (Insn.Imm 1));
            Br (Insn.NE, "ct_inner");
            I (Insn.subs 4 4 (Insn.Imm 1));
            Br (Insn.NE, "ct_outer");
            I (Insn.mov 0 (Insn.Imm 0));
            I (Insn.pop [ Insn.r4; Insn.pc ]);
            Align4;
            Label "srcbuf" ]
          @ List.init 16 (fun _ -> Word 0x61626364)
          @ [ Label "dstbuf" ]
          @ List.init 16 (fun _ -> Word 0)
        in
        [ ("copybench", assemble ~extern ~base:Layout.app_lib_base items) ]);
    entry = (a3_cls, "copyModeled");
    expected_sink = "" }

let a3 () =
  section "A3 (ablation): libc summaries vs per-instruction tracing (Sec. V-D)";
  let run name =
    let device = H.boot a3_app in
    (* isolate instrumentation cost: no baseline body charge *)
    Machine.set_host_fn_work (Device.machine device) 0;
    ignore (Ndroid.attach device);
    time_median (fun () ->
        ignore
          (Device.run device a3_cls name [| (Dvalue.Int 4000l, Taint.clear) |]))
  in
  let modeled = run "copyModeled" and traced = run "copyTraced" in
  Printf.printf "64-byte copy via modeled memcpy:     %.4fs\n" modeled;
  Printf.printf "64-byte copy via traced guest loop:  %.4fs\n" traced;
  Printf.printf "summary speedup: %.2fx\n" (traced /. modeled)

(* ----------------------------------------------------------------- E11 -- *)

let e11 () =
  section "E11: input generation (Sec. VI — why Monkeyrunner missed leaks)";
  let module M = Ndroid_apps.Monkey in
  Printf.printf "%s\n" M.gated_app.M.app.H.description;
  let seeds = 20 and events = 60 in
  let found =
    M.discovery_rate ~seeds ~events ~mode:H.Ndroid_full M.gated_app
  in
  Printf.printf "random monkey (%d seeds x %d events): leak triggered in %d/%d runs\n"
    seeds events found seeds;
  let scripted =
    M.drive_script ~script:M.gated_script ~mode:H.Ndroid_full M.gated_app
  in
  Printf.printf "directed input %s: leak triggered = %b\n"
    (String.concat " -> " M.gated_script)
    scripted.M.leaked;
  List.iter
    (fun l -> Format.printf "  leak: %a@." A.Sink_monitor.pp_leak l)
    scripted.M.outcome_leaks;
  Printf.printf
    "paper: random input over 37,506 apps surfaced one leaking app; manual \
     input over 8 apps surfaced three more\n"

(* ---------------------------------------------------------------- E14 -- *)

let e14 () =
  section "E14: Sec. III 'Library Distribution' analysis";
  let entries =
    Stats.library_distribution (Market.generate (Market.scaled 50_000))
  in
  Format.printf "%a" Stats.pp_library_distribution entries;
  Printf.printf
    "paper: most libraries from game-engine companies (Unity, Libgdx,      Box2D); many video/audio; NDK/system libraries bundled for      compatibility\n"

(* ---------------------------------------------------------------- E13 -- *)

let e13 () =
  section "E13: Sec. VI manual-input batch (8 apps)";
  Printf.printf
    "paper: 3 of 8 apps delivered contact/SMS data to native code; 1 \
     (ePhone3.3) leaked it\n\n";
  Printf.printf "%-18s %-22s %s\n" "app" "delivered to native" "leaked";
  let vs = Ndroid_apps.Sec6_batch.summary () in
  List.iter
    (fun v ->
      Printf.printf "%-18s %-22b %b\n" v.Ndroid_apps.Sec6_batch.v_app
        v.Ndroid_apps.Sec6_batch.delivered_to_native
        v.Ndroid_apps.Sec6_batch.leaked)
    vs;
  let delivered =
    List.length (List.filter (fun v -> v.Ndroid_apps.Sec6_batch.delivered_to_native) vs)
  and leaked =
    List.length (List.filter (fun v -> v.Ndroid_apps.Sec6_batch.leaked) vs)
  in
  Printf.printf "\nmeasured: %d/8 delivered, %d/8 leaked (paper: 3 and 1)\n"
    delivered leaked

(* ----------------------------------------------------------------- E12 -- *)

let e12 () =
  section "E12: control-flow evasion (Sec. VII limitation, negative result)";
  let missed, payload = Ndroid_apps.Evasion.run_and_confirm_miss () in
  Printf.printf "%s\n" Ndroid_apps.Evasion.app.H.description;
  Printf.printf "data left the device: %s\n"
    (match payload with Some p -> Printf.sprintf "yes (%S)" p | None -> "no");
  Printf.printf "NDroid missed it: %b (expected: true — no control-flow taint)\n"
    missed

(* ------------------------------------------------- Bechamel micro-suite -- *)

let micro () =
  section "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let scaled = Market.scaled 4000 in
  let e_engine = Taint_engine.create () in
  let e_cpu = Cpu.create () in
  Cpu.set_reg e_cpu 1 0x5000;
  let insn = Insn.add 0 1 (Insn.Reg 2) in
  let tests =
    [ Test.make ~name:"tableI.case1'.detection.ndroid"
        (Staged.stage (fun () ->
             let device = H.boot Cases.case1' in
             ignore (Ndroid.attach device);
             ignore (Device.run device "Lcom/ndroid/demos/Case1p;" "main" [||])));
      Test.make ~name:"fig2.corpus.classify.4k"
        (Staged.stage (fun () -> ignore (Stats.summarize (Market.generate scaled))));
      Test.make ~name:"tableV.insn_taint.step"
        (Staged.stage (fun () -> Insn_taint.step e_engine e_cpu ~addr:0 insn));
      Test.make ~name:"fig10.java.intrinsic.call"
        (Staged.stage
           (let device = Device.create () in
            let vm = Device.vm device in
            let s = Vm.new_string vm "x" in
            fun () ->
              ignore
                (Ndroid_dalvik.Interp.invoke_by_name vm "Ljava/lang/String;"
                   "length" [| s |])));
      Test.make ~name:"tableVI.memcpy.model"
        (Staged.stage
           (let device = Device.create () in
            let machine = Device.machine device in
            Machine.set_host_fn_work machine 0;
            let addr = Machine.host_fn_addr machine "memcpy" in
            fun () ->
              ignore
                (Machine.call_native machine ~addr
                   ~args:[ 0x30001000; 0x30000000; 64 ] ())));
      Test.make ~name:"fig5.multilevel.observe"
        (Staged.stage
           (let ml =
              Ndroid_emulator.Multilevel.create
                ~chain:[ Ndroid_emulator.Multilevel.exact 0x40001000 ]
                ~in_native:Layout.in_app_lib
            in
            fun () ->
              ignore
                (Ndroid_emulator.Multilevel.observe ml ~from_:Layout.app_lib_base
                   ~to_:0x40002000))) ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg =
        Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
      in
      let raw = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-42s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------- driver -- *)

let all_experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("a1", a1); ("a2", a2);
    ("a3", a3); ("micro", micro) ]

let () =
  Printf.printf
    "NDroid reproduction experiment harness (OCaml %s)\n\
     paper: On Tracking Information Flows through JNI in Android \
     Applications, DSN 2014\n"
    Sys.ocaml_version;
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with [] -> List.map fst all_experiments | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst all_experiments));
        exit 1)
    selected
