(* Differential tests for the three native taint paths: random
   straight-line native bodies run through (1) the per-instruction
   trace loop, (2) superblock execution with fused taint transfers, and
   (3) — when the body is summary-exact — the digest-cached native taint
   summary.  Registers, memory, and the full taint state must agree
   across all paths (oracle pattern of test_dalvik_diff.ml).

   Plus deterministic regressions for self-modifying code: a runtime
   write into a translated code page must invalidate the superblock and
   reject the library's summaries, falling back to emulation. *)

module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Asm = Ndroid_arm.Asm
module Memory = Ndroid_arm.Memory
module Layout = Ndroid_emulator.Layout
module Machine = Ndroid_emulator.Machine
module Tracer = Ndroid_emulator.Tracer
module Superblock = Ndroid_emulator.Superblock
module Taint_engine = Ndroid_emulator.Taint_engine
module Insn_taint = Ndroid_emulator.Insn_taint
module Summary = Ndroid_summary.Summary
module Device = Ndroid_runtime.Device
module Ndroid = Ndroid_core.Ndroid
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module H = Ndroid_apps.Harness
module A = Ndroid_android

(* ---------------- random native bodies ---------------- *)

(* Straight-line bodies over r0-r9 (r10 is reserved as the data-buffer
   base in memory-touching bodies; r12-r15 never appear, so register-only
   bodies are summary-exact candidates). *)

type case = {
  with_mem : bool;  (** include loads/stores against an in-image buffer *)
  insns : Insn.t list;
  args : int list;  (** r0-r3 at entry *)
}

let reg_gen = QCheck.Gen.int_range 0 9

let op2_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun r -> Insn.Reg r) reg_gen;
      map (fun i -> Insn.Imm i) (int_range 0 255) ]

let dp_gen : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [ (3, map2 Insn.mov reg_gen op2_gen);
      (1, map2 Insn.mvn reg_gen op2_gen);
      (4, map3 Insn.add reg_gen reg_gen op2_gen);
      (3, map3 Insn.sub reg_gen reg_gen op2_gen);
      (2, map3 Insn.adds reg_gen reg_gen op2_gen);
      (2, map3 Insn.subs reg_gen reg_gen op2_gen);
      (* carry consumers: the summary replay must seed entry flags *)
      (2, map3 Insn.adc reg_gen reg_gen op2_gen);
      (2, map3 Insn.eor reg_gen reg_gen op2_gen);
      (2, map3 Insn.orr reg_gen reg_gen op2_gen);
      (2, map3 Insn.and_ reg_gen reg_gen op2_gen);
      (1, map3 Insn.bic reg_gen reg_gen op2_gen);
      (1, map2 Insn.cmp reg_gen op2_gen);
      (1, map2 Insn.tst reg_gen op2_gen);
      (2, map3 Insn.mul reg_gen reg_gen reg_gen);
      (1, map3 (fun d m s -> Insn.mla d m s d) reg_gen reg_gen reg_gen);
      (1,
       map3
         (fun d m s -> Insn.umull d ((d + 1) mod 10) m s)
         (int_range 0 9) reg_gen reg_gen);
      (1, map2 Insn.clz reg_gen reg_gen) ]

let mem_gen : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let off = map (fun i -> 4 * i) (int_range 0 15) in
  oneof
    [ map2 (fun r o -> Insn.ldr r 10 o) reg_gen off;
      map2 (fun r o -> Insn.str r 10 o) reg_gen off ]

let case_gen =
  let open QCheck.Gen in
  bool >>= fun with_mem ->
  let insn = if with_mem then frequency [ (3, dp_gen); (2, mem_gen) ] else dp_gen in
  map2
    (fun insns args -> { with_mem; insns; args })
    (list_size (int_range 1 24) insn)
    (list_repeat 4 (int_range (-100) 1000))

let print_case c =
  Printf.sprintf "mem=%b args=[%s]\n  %s" c.with_mem
    (String.concat ";" (List.map string_of_int c.args))
    (String.concat "\n  " (List.map Insn.to_string c.insns))

(* ---------------- the three paths ---------------- *)

let program c =
  let body = List.map (fun i -> Asm.I i) c.insns in
  let pre = if c.with_mem then [ Asm.La (10, "buf") ] else [] in
  Asm.assemble ~base:Layout.app_lib_base
    ([ Asm.Label "f" ] @ pre @ body
    @ [ Asm.I Insn.bx_lr; Asm.Align4; Asm.Label "buf" ]
    @ List.init 16 (fun i -> Asm.Word (0x01010101 * (i + 1))))

(* identical entry taint for every path: r1 carries IMEI, r3 carries SMS,
   and the buffer's second and third words carry IMEI *)
let seed_taints engine prog =
  Taint_engine.set_reg engine 1 Taint.imei;
  Taint_engine.set_reg engine 3 Taint.sms;
  Taint_engine.set_mem engine (Asm.symbol prog "buf" + 4) 8 Taint.imei

let taint_str t = Format.asprintf "%a" Taint.pp t

let taint_dump engine prog =
  let buf = Asm.symbol prog "buf" in
  Printf.sprintf "regs=[%s] mem=[%s]"
    (String.concat ";"
       (List.init 13 (fun i -> taint_str (Taint_engine.reg engine i))))
    (String.concat ";"
       (List.init 16 (fun i ->
            taint_str (Taint_engine.mem engine (buf + (4 * i)) 4))))

let machine_dump m prog (r0, r1) =
  let cpu = Machine.cpu m in
  let buf = Asm.symbol prog "buf" in
  Printf.sprintf "ret=%d,%d regs=[%s] buf=[%s]" r0 r1
    (String.concat ";" (List.init 13 (fun i -> string_of_int (Cpu.reg cpu i))))
    (String.concat ";"
       (List.init 16 (fun i ->
            string_of_int (Memory.read_u32 (Machine.mem m) (buf + (4 * i))))))

let run_path ~superblocks prog c =
  let m = Machine.create () in
  Machine.load_program m prog;
  let engine = Taint_engine.create () in
  let cpu = Machine.cpu m in
  let tracer = Tracer.create () in
  Machine.add_insn_hook m (fun addr insn ->
      if Tracer.admit tracer addr then Insn_taint.step engine cpu ~addr insn);
  if superblocks then ignore (Machine.enable_superblocks ~engine m : Superblock.t);
  seed_taints engine prog;
  let r0, r1 = Machine.call_native m ~addr:(Asm.fn_addr prog "f") ~args:c.args () in
  ((r0, r1), m, engine)

let run_summary prog c =
  let m = Machine.create () in
  Machine.load_program m prog;
  let lib = Summary.derive (Machine.mem m) prog in
  match Summary.find lib (Asm.fn_addr prog "f") with
  | Some fn when fn.Summary.f_verdict = Summary.Exact ->
    let engine = Taint_engine.create () in
    seed_taints engine prog;
    let slots = Array.of_list (List.map (fun v -> (v, Taint.clear)) c.args) in
    let r0, r1 =
      Summary.eval fn ~cpu:(Machine.cpu m) ~mem:(Machine.mem m) ~slots
    in
    Summary.apply_masks engine fn.Summary.f_masks;
    Some ((r0, r1), engine)
  | _ -> None

let differential c =
  let prog = program c in
  let ret_i, m_i, e_i = run_path ~superblocks:false prog c in
  let ret_s, m_s, e_s = run_path ~superblocks:true prog c in
  let check what a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s differs\nper-insn:   %s\nother path: %s" what
        a b
  in
  check "machine state (superblock)"
    (machine_dump m_i prog ret_i)
    (machine_dump m_s prog ret_s);
  check "taint state (superblock)" (taint_dump e_i prog) (taint_dump e_s prog);
  (match run_summary prog c with
   | Some (ret_m, e_m) ->
     check "return value (summary)"
       (Printf.sprintf "%d,%d" (fst ret_i) (snd ret_i))
       (Printf.sprintf "%d,%d" (fst ret_m) (snd ret_m));
     check "taint state (summary)" (taint_dump e_i prog) (taint_dump e_m prog)
   | None ->
     (* register-only bodies must be summary-exact; only memory-touching
        ones may fall back *)
     if not c.with_mem then
       QCheck.Test.fail_reportf "register-only body not summarized as Exact");
  true

let prop_three_paths =
  QCheck.Test.make ~name:"per-insn == superblock == summary" ~count:400
    (QCheck.make ~print:print_case case_gen)
    differential

(* ---------------- self-modifying code ---------------- *)

(* two one-instruction functions; patching f's body with g's first word
   must invalidate f's superblock and change the observed return value *)
let selfmod_prog () =
  Asm.assemble ~base:Layout.app_lib_base
    [ Asm.Label "n"; Asm.I (Insn.mov 0 (Insn.Imm 1)); Asm.I Insn.bx_lr;
      Asm.Label "g"; Asm.I (Insn.mov 0 (Insn.Imm 2)); Asm.I Insn.bx_lr ]

let test_superblock_invalidation () =
  let prog = selfmod_prog () in
  let m = Machine.create () in
  Machine.load_program m prog;
  let sb = Machine.enable_superblocks m in
  let f = Asm.fn_addr prog "n" and g = Asm.fn_addr prog "g" in
  let call () = fst (Machine.call_native m ~addr:f ~args:[] ()) in
  Alcotest.(check int) "before patch" 1 (call ());
  Alcotest.(check int) "warm cache" 1 (call ());
  let hits_before = Superblock.hits sb in
  Alcotest.(check bool) "block was cached" true (hits_before > 0);
  (* runtime write into the translated code page *)
  Memory.write_u32 (Machine.mem m) f (Memory.read_u32 (Machine.mem m) g);
  Alcotest.(check int) "after patch" 2 (call ());
  Alcotest.(check bool) "stale block retranslated" true
    (Superblock.invalidations sb > 0)

(* device level: a runtime write into a summarized library must mark its
   summaries dirty, so the JNI bridge rejects them and re-emulates *)
let selfmod_cls = "LSelfMod;"

let selfmod_device () =
  let device = Device.create () in
  Device.install_classes device
    [ J.class_ ~name:selfmod_cls
        [ J.native_method ~cls:selfmod_cls ~name:"n" ~shorty:"I" "n";
          J.method_ ~cls:selfmod_cls ~name:"call" ~shorty:"I" ~registers:2
            [ J.I
                (B.Invoke
                   (B.Static, { B.m_class = selfmod_cls; m_name = "n" }, []));
              J.I (B.Move_result 0);
              J.I (B.Return 0) ] ] ];
  Device.provide_library device "selfmod" (selfmod_prog ());
  Device.load_library device "selfmod";
  device

let test_summary_staleness () =
  let device = selfmod_device () in
  Device.set_use_summaries device true;
  let run () =
    match Device.run device selfmod_cls "call" [||] with
    | Dvalue.Int v, _ -> Int32.to_int v
    | v, _ -> Alcotest.failf "unexpected result %s" (Dvalue.to_string v)
  in
  Alcotest.(check int) "summary path answers" 1 (run ());
  Alcotest.(check int) "summary applied" 1 (Device.summaries_applied device);
  let prog = selfmod_prog () in
  let mem = Machine.mem (Device.machine device) in
  let f = Asm.fn_addr prog "n" and g = Asm.fn_addr prog "g" in
  Memory.write_u32 mem f (Memory.read_u32 mem g);
  Alcotest.(check int) "emulation sees the patched body" 2 (run ());
  Alcotest.(check bool) "stale summary rejected" true
    (Device.summaries_rejected device > 0);
  Alcotest.(check int) "no further summary applications" 1
    (Device.summaries_applied device)

(* ---------------- detection apps under every configuration ---------------- *)

let leak_signature (o : H.outcome) =
  List.map (fun l -> Format.asprintf "%a" A.Sink_monitor.pp_leak l) o.H.leaks

let test_detection_agreement () =
  List.iter
    (fun (app : H.app) ->
      let base = H.run H.Ndroid_full app in
      let configs =
        [ ("superblocks", H.run ~superblocks:true H.Ndroid_full app);
          ("summaries", H.run ~summaries:true H.Ndroid_full app);
          ("both", H.run ~superblocks:true ~summaries:true H.Ndroid_full app) ]
      in
      List.iter
        (fun (name, o) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: detected (%s)" app.H.app_name name)
            base.H.detected o.H.detected;
          Alcotest.(check (list string))
            (Printf.sprintf "%s: leaks (%s)" app.H.app_name name)
            (leak_signature base) (leak_signature o))
        configs)
    (Ndroid_apps.Cases.all @ Ndroid_apps.Case_studies.all)

(* ---------------- summary persistence through the pipeline cache -------- *)

let test_summary_cache_roundtrip () =
  let module Cache = Ndroid_pipeline.Cache in
  let module Analysis = Ndroid_pipeline.Analysis in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "ndroid-test-summary-cache"
  in
  (match Sys.readdir dir with
   | names -> Array.iter (fun n -> Sys.remove (Filename.concat dir n)) names
   | exception Sys_error _ -> ());
  let cache = Cache.create ~dir in
  Analysis.enable_summary_cache cache;
  let prog = selfmod_prog () in
  let m = Machine.create () in
  Machine.load_program m prog;
  let lib1 = Summary.derive_cached (Machine.mem m) prog in
  let misses_after_first = Cache.misses cache in
  let lib2 = Summary.derive_cached (Machine.mem m) prog in
  Summary.set_persistence ~load:(fun _ -> None) ~save:(fun _ _ -> ());
  Alcotest.(check bool) "first derivation missed" true (misses_after_first > 0);
  Alcotest.(check bool) "second derivation hit the cache" true
    (Cache.hits cache > 0);
  Alcotest.(check int) "same exact count" (Summary.exact_count lib1)
    (Summary.exact_count lib2);
  match Sys.readdir dir with
  | names -> Array.iter (fun n -> Sys.remove (Filename.concat dir n)) names
  | exception Sys_error _ -> ()

let suite =
  [ QCheck_alcotest.to_alcotest prop_three_paths;
    Alcotest.test_case "self-modifying code invalidates superblocks" `Quick
      test_superblock_invalidation;
    Alcotest.test_case "self-modifying code rejects stale summaries" `Quick
      test_summary_staleness;
    Alcotest.test_case "detection apps agree across all taint paths" `Quick
      test_detection_agreement;
    Alcotest.test_case "summaries persist through the pipeline cache" `Quick
      test_summary_cache_roundtrip ]
