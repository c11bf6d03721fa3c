(* Stress: deep Java <-> native ping-pong recursion, artifact parsers and
   the wire, cache and summary decoders under random corruption, and a
   long mixed workload with the GC running. *)

module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Taint = Ndroid_taint.Taint
module H = Ndroid_apps.Harness

let tv ?(taint = Taint.clear) v : Vm.tval = (v, taint)
let int32 n = Dvalue.Int (Int32.of_int n)
let mov rd rm = Asm.I (Insn.mov rd (Insn.Reg rm))

(* Java pingJava(n) calls native pingNative(n-1), which calls back
   pingJava(n-1)... the bridge nests one native frame and one interpreter
   frame per level. *)
let cls = "LPong;"

let pingpong_app : H.app =
  { H.app_name = "pingpong";
    app_case = "stress";
    description = "deep Java<->native recursion";
    classes =
      [ J.class_ ~name:cls
          [ J.native_method ~cls ~name:"pingNative" ~shorty:"II" "pingNative";
            J.method_ ~cls ~name:"pingJava" ~shorty:"II" ~registers:6
              [ J.Ifz_l (B.Le, 5, "base");
                J.I (B.Binop_lit (B.Sub, 0, 5, 1l));
                J.I (B.Invoke (B.Static, { B.m_class = cls;
                                           m_name = "pingNative" }, [ 0 ]));
                J.I (B.Move_result 1);
                J.I (B.Binop_lit (B.Add, 1, 1, 1l));
                J.I (B.Return 1);
                J.L "base";
                J.I (B.Const (0, Dvalue.Int 0l));
                J.I (B.Return 0) ] ] ];
    build_libs =
      (fun extern ->
        [ ( "pong",
            Asm.assemble ~extern ~base:Layout.app_lib_base
              [ Asm.Label "pingNative";
                Asm.I (Insn.push [ Insn.r4; Insn.r5; Insn.lr ]);
                Asm.I (Insn.mov 9 (Insn.Reg 0));
                Asm.I (Insn.mov 4 (Insn.Reg 2)) (* n *);
                Asm.La (1, "c");
                Asm.Call "FindClass";
                mov 1 0;
                Asm.La (2, "m");
                Asm.La (3, "s");
                Asm.I (Insn.mov 0 (Insn.Reg 9));
                Asm.Call "GetStaticMethodID";
                mov 2 0;
                mov 3 4;
                Asm.I (Insn.mov 0 (Insn.Reg 9));
                Asm.Call "CallStaticIntMethod";
                Asm.I (Insn.add 0 0 (Insn.Imm 1));
                Asm.I (Insn.pop [ Insn.r4; Insn.r5; Insn.pc ]);
                Asm.Align4;
                Asm.Label "c";
                Asm.Asciz "LPong;";
                Asm.Label "m";
                Asm.Asciz "pingJava";
                Asm.Label "s";
                Asm.Asciz "(I)I" ] ) ]);
    entry = (cls, "pingJava");
    expected_sink = "" }

let test_deep_pingpong () =
  let device = H.boot pingpong_app in
  ignore (Ndroid_core.Ndroid.attach device);
  let depth = 40 in
  let v, _ = Device.run device cls "pingJava" [| tv (int32 depth) |] in
  (* each level adds 2 (one in Java, one in native) *)
  Alcotest.(check bool) "depth x2" true (Dvalue.equal v (int32 (2 * depth)))

let test_pingpong_carries_taint_down () =
  let device = H.boot pingpong_app in
  ignore (Ndroid_core.Ndroid.attach device);
  let v, t = Device.run device cls "pingJava" [| (int32 10, Taint.imei) |] in
  ignore v;
  (* the counter is derived from the tainted input at every level *)
  Alcotest.(check bool) "taint survives 10 crossings" true
    (Taint.equal t Taint.imei)

(* ---- artifact parsers never crash on corrupt input ---- *)

let base_dex = lazy (Ndroid_dalvik.Dexfile.to_string Ndroid_apps.Cases.case1.H.classes)

let prop_dex_corruption =
  QCheck.Test.make ~name:"corrupted dex parses or fails cleanly" ~count:300
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (pos, byte) ->
      let img = Bytes.of_string (Lazy.force base_dex) in
      let pos = pos mod Bytes.length img in
      Bytes.set img pos (Char.chr byte);
      match Ndroid_dalvik.Dexfile.of_string (Bytes.to_string img) with
      | _ -> true
      | exception Ndroid_dalvik.Dexfile.Bad_dex _ -> true)

let base_so =
  lazy
    (Ndroid_arm.Sofile.to_string
       (Asm.assemble ~base:0x4A000000
          [ Asm.Label "f"; Asm.I (Insn.mov 0 (Insn.Imm 1)); Asm.I Insn.bx_lr ]))

let prop_so_corruption =
  QCheck.Test.make ~name:"corrupted so parses or fails cleanly" ~count:300
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (pos, byte) ->
      let img = Bytes.of_string (Lazy.force base_so) in
      let pos = pos mod Bytes.length img in
      Bytes.set img pos (Char.chr byte);
      match Ndroid_arm.Sofile.of_string (Bytes.to_string img) with
      | _ -> true
      | exception Ndroid_arm.Sofile.Bad_sofile _ -> true)

(* ---- decoders of outside bytes answer hostile input with a value ----

   Each property mutates a well-formed encoding (up to four byte
   overwrites, then maybe a truncation) and feeds it back to its decoder,
   which must return its typed answer ([Ok]/[Error], [Some]/[None]) and
   never raise. *)

let mutation =
  QCheck.(
    pair
      (list_of_size Gen.(int_range 1 4) (pair (int_bound 100_000) (int_bound 255)))
      (option (int_bound 100_000)))

(* overwrites land at or after byte [from]; a cut keeps at least [from] *)
let mutate ?(from = 0) s (writes, cut) =
  let b = Bytes.of_string s in
  let n = Bytes.length b - from in
  List.iter
    (fun (pos, byte) -> Bytes.set b (from + (pos mod n)) (Char.chr byte))
    writes;
  match cut with
  | Some k -> Bytes.sub_string b 0 (from + (k mod n))
  | None -> Bytes.to_string b

module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Proto = Ndroid_pipeline.Proto

let flagged_report =
  { Verdict.r_app = "case1";
    r_analysis = "both";
    r_verdict =
      Verdict.Flagged
        [ { Ndroid_report.Flow.f_taint = Taint.imei; f_sink = "sendto";
            f_context = Ndroid_report.Flow.Native_ctx; f_site = "Lcase1;->leak";
            f_hops =
              [ { Ndroid_report.Flow.h_kind = "jni"; h_site = "leak (java->native)" } ]
          } ];
    r_meta = [ ("jni_sites", Json.Int 2); ("classification", Json.Null) ] }

(* one frame payload (what [Wire] hands [Proto.of_frame]) per message kind *)
let proto_payloads =
  lazy
    (List.map
       (fun m ->
         let f = Bytes.to_string (Proto.to_frame m) in
         String.sub f 4 (String.length f - 4))
       [ Proto.Submit
           { sb_req = 3;
             sb_subject =
               Task.Market { m_total = 100; m_seed = 7; m_permille = Some 40; m_id = 9 };
             sb_mode = Task.Hybrid; sb_deadline = Some 1.5;
             sb_fault = Some (Task.Sleep 0.25); sb_trace = true };
         Proto.Subscribe { su_cats = [ "jni" ]; su_app = Some "case.*"; su_window = 64 };
         Proto.Verdict
           { vd_req = 1; vd_cached = false; vd_seconds = 0.5; vd_report = flagged_report };
         Proto.Progress { pg_req = 2; pg_state = "queued"; pg_depth = 5 };
         Proto.Trace
           { tc_req = -1; tc_app = "case1";
             tc_events =
               [ { Ndroid_obs.Stream.ev_seq = 4; ev_kind = Ndroid_obs.Event.K_jni_begin;
                   ev_name = "La;->n"; ev_detail = "java->native"; ev_addr = 64;
                   ev_taint = 2; ev_insn = "mov r0, r1" } ];
             tc_dropped = 1; tc_lost = 2 };
         Proto.Shed { sh_req = 9; sh_reason = "queue at capacity" };
         Proto.Error "bad frame" ])

let prop_proto_hostile =
  QCheck.Test.make ~name:"mutated proto frames decode or fail cleanly" ~count:500
    QCheck.(pair (int_bound 6) mutation)
    (fun (kind, m) ->
      match Proto.of_frame (mutate (List.nth (Lazy.force proto_payloads) kind) m) with
      | Ok _ | Error _ -> true)

let prop_cache_entry_hostile =
  let module Cache = Ndroid_pipeline.Cache in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-hostile-%d" (Unix.getpid ()))
  in
  let file = Filename.concat dir "entry.json" in
  let raw_file = Filename.concat dir "raw.json" in
  let json r = Json.to_string (Verdict.report_to_json r) in
  (* a raw side entry's blob, shaped like a native summary *)
  let blob = {|{"digest":"0123456789abcdef","fns":[{"entry":1241513984}]}|} in
  let corrupt m file =
    let entry = In_channel.with_open_bin file In_channel.input_all in
    Out_channel.with_open_bin file (fun oc -> output_string oc (mutate entry m))
  in
  (* a hit must be the stored report itself, never some other report; a
     raw entry likewise reads back as the stored blob or not at all *)
  QCheck.Test.make ~name:"mutated cache entries read as a report or a miss"
    ~count:300 mutation
    (fun m ->
      let cache = Cache.create ~dir in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ file; raw_file ];
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () ->
          Cache.store cache ~key:"entry" flagged_report;
          Cache.store_raw cache ~key:"raw" blob;
          corrupt m file;
          corrupt m raw_file;
          (match Cache.find cache ~key:"entry" with
           | Some r -> json r = json flagged_report
           | None -> true)
          &&
          match Cache.find_raw cache ~key:"raw" with
          | Some b -> b = blob
          | None -> true))

let prop_summary_json_hostile =
  let module Summary = Ndroid_summary.Summary in
  let fixture =
    lazy
      (let prog =
         Asm.assemble ~base:Layout.app_lib_base
           [ Asm.Label "f"; Asm.I (Insn.add 0 0 (Insn.Imm 1));
             Asm.I (Insn.eor 0 0 (Insn.Reg 1)); Asm.I Insn.bx_lr;
             Asm.Label "g"; Asm.I (Insn.ldr 0 0 0); Asm.I Insn.bx_lr ]
       in
       let m = Machine.create () in
       Machine.load_program m prog;
       let mem = Machine.mem m in
       (mem, prog, Json.to_string (Summary.to_json (Summary.derive mem prog))))
  in
  (* the image digest leads the text and is checked first: mutate what
     follows it, where the function entries are decoded *)
  QCheck.Test.make ~name:"mutated summary json loads or is refused" ~count:300
    mutation
    (fun m ->
      let mem, prog, text = Lazy.force fixture in
      let from = String.length (Printf.sprintf "{\"digest\":%S" (Summary.digest_of prog)) in
      match Json.of_string (mutate ~from text m) with
      | Error _ -> true
      | Ok j -> ( match Summary.of_json mem prog j with Some _ | None -> true))

(* ---- sustained mixed load with periodic GC ---- *)

let test_sustained_load_with_gc () =
  let device = H.boot Ndroid_apps.Cases.case1' in
  let nd = Ndroid_core.Ndroid.attach device in
  for _round = 1 to 25 do
    ignore (Device.run device "Lcom/ndroid/demos/Case1p;" "main" [||]);
    Device.gc device
  done;
  (* one leak per round, all tagged 0x202 *)
  let leaks = Ndroid_core.Ndroid.leaks nd in
  Alcotest.(check int) "25 rounds, 25 leaks" 25 (List.length leaks);
  List.iter
    (fun l ->
      Alcotest.(check bool) "tag stable across GCs" true
        (Taint.equal l.Ndroid_android.Sink_monitor.taint (Taint.of_bits 0x202)))
    leaks

let suite =
  [ Alcotest.test_case "deep Java<->native ping-pong" `Quick test_deep_pingpong;
    Alcotest.test_case "taint through 10 crossings" `Quick
      test_pingpong_carries_taint_down;
    Alcotest.test_case "sustained load with GC" `Quick test_sustained_load_with_gc;
    QCheck_alcotest.to_alcotest prop_dex_corruption;
    QCheck_alcotest.to_alcotest prop_so_corruption;
    QCheck_alcotest.to_alcotest prop_proto_hostile;
    QCheck_alcotest.to_alcotest prop_cache_entry_hostile;
    QCheck_alcotest.to_alcotest prop_summary_json_hostile ]
