(* The paper's evaluation apps: each case study must reproduce its figure's
   observable behaviour, and CF-Bench must run everywhere. *)

module H = Ndroid_apps.Harness
module CS = Ndroid_apps.Case_studies
module CF = Ndroid_apps.Cfbench
module Device = Ndroid_runtime.Device
module A = Ndroid_android
module Taint = Ndroid_taint.Taint

let check_taint = Alcotest.testable Taint.pp Taint.equal

let has_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else loop (i + 1)
  in
  nl = 0 || loop 0

let log_contains o needle = List.exists (fun l -> has_substring l needle) o.H.flow_log

(* ---- QQPhoneBook (Fig. 6) ---- *)

let qq = lazy (H.run H.Ndroid_full CS.qq_phonebook)

let test_qq_detected_by_ndroid_only () =
  Alcotest.(check bool) "NDroid" true (Lazy.force qq).H.detected;
  Alcotest.(check bool) "TaintDroid misses" false
    (H.run H.Taintdroid_only CS.qq_phonebook).H.detected

let test_qq_url_shape () =
  let o = Lazy.force qq in
  match o.H.transmissions with
  | [ t ] ->
    Alcotest.(check string) "server" "info.3g.qq.com" t.A.Network.dest;
    Alcotest.(check bool) "xpimlogin url" true
      (has_substring t.A.Network.payload "http://sync.3g.qq.com/xpimlogin?sid=")
  | ts -> Alcotest.failf "expected 1 transmission, got %d" (List.length ts)

let test_qq_taint_is_0x202 () =
  let o = Lazy.force qq in
  match o.H.leaks with
  | leak :: _ ->
    Alcotest.check check_taint "contacts|sms" (Taint.of_bits 0x202)
      leak.A.Sink_monitor.taint
  | [] -> Alcotest.fail "no leak"

let test_qq_log_matches_fig6 () =
  let o = Lazy.force qq in
  Alcotest.(check bool) "method header" true
    (log_contains o "name: makeLoginRequestPackageMd5");
  Alcotest.(check bool) "shorty" true (log_contains o "shorty: IILLLLLLLLII");
  Alcotest.(check bool) "class" true
    (log_contains o "class: Lcom/tencent/tccsync/LoginUtil;");
  Alcotest.(check bool) "args[3] tainted 0x202" true
    (List.exists
       (fun l -> has_substring l "args[3]" && has_substring l "taint: 0x202")
       o.H.flow_log);
  Alcotest.(check bool) "dvmCreateStringFromCstr logged" true
    (log_contains o "dvmCreateStringFromCstr return");
  Alcotest.(check bool) "new string tainted" true
    (log_contains o "add taint 0x202 to new string object")

(* ---- ePhone (Fig. 7) ---- *)

let ephone = lazy (H.run H.Ndroid_full CS.ephone)

let test_ephone_detected () =
  Alcotest.(check bool) "NDroid" true (Lazy.force ephone).H.detected;
  Alcotest.(check bool) "TaintDroid misses" false
    (H.run H.Taintdroid_only CS.ephone).H.detected

let test_ephone_sip_register () =
  let o = Lazy.force ephone in
  match o.H.transmissions with
  | [ t ] ->
    Alcotest.(check string) "SIP server" "softphone.comwave.net" t.A.Network.dest;
    Alcotest.(check bool) "REGISTER" true
      (has_substring t.A.Network.payload "REGISTER sip:softphone.comwave.net");
    Alcotest.(check bool) "phone number in payload" true
      (has_substring t.A.Network.payload "4804001849")
  | ts -> Alcotest.failf "expected 1 transmission, got %d" (List.length ts)

let test_ephone_leak_at_sendto () =
  let o = Lazy.force ephone in
  match o.H.leaks with
  | leak :: _ ->
    Alcotest.(check string) "sink" "sendto" leak.A.Sink_monitor.sink;
    Alcotest.check check_taint "contacts tag" Taint.contacts leak.A.Sink_monitor.taint
  | [] -> Alcotest.fail "no leak"

(* ---- PoC case 2 (Fig. 8) ---- *)

let poc2 = lazy (H.run H.Ndroid_full CS.poc_case2)

let test_poc2_file_contents () =
  let o = Lazy.force poc2 in
  Alcotest.(check bool) "record written" true
    (has_substring
       (A.Filesystem.contents (Device.fs o.H.device) "/sdcard/CONTACTS")
       "1 Vincent cx@gg.com")

let test_poc2_log_matches_fig8 () =
  let o = Lazy.force poc2 in
  Alcotest.(check bool) "recordContact header" true
    (log_contains o "name: recordContact");
  Alcotest.(check bool) "shorty ZLLL" true (log_contains o "shorty: ZLLL");
  Alcotest.(check bool) "GetStringUTFChars handler" true
    (log_contains o "TrustCallHandler[GetStringUTFChars]");
  Alcotest.(check bool) "fopen handler" true (log_contains o "Open '/sdcard/CONTACTS'");
  Alcotest.(check bool) "fprintf sink handler" true
    (log_contains o "SinkHandler[fprintf]");
  Alcotest.(check bool) "per-string taint lines" true
    (List.exists (fun l -> has_substring l "write: Vincent") o.H.flow_log)

let test_poc2_fig8_file_ptr () =
  (* the first FILE* the device hands out is the Fig. 8 address *)
  let o = Lazy.force poc2 in
  Alcotest.(check bool) "FILE@0x4006fd44" true
    (log_contains o "Close FILE@0x4006fd44")

(* ---- PoC case 3 (Fig. 9) ---- *)

let poc3 = lazy (H.run H.Ndroid_full CS.poc_case3)

let test_poc3_detected_with_0x1602 () =
  let o = Lazy.force poc3 in
  Alcotest.(check bool) "detected" true o.H.detected;
  match o.H.leaks with
  | leak :: _ ->
    Alcotest.check check_taint "0x1602" (Taint.of_bits 0x1602)
      leak.A.Sink_monitor.taint
  | [] -> Alcotest.fail "no leak"

let test_poc3_log_matches_fig9 () =
  let o = Lazy.force poc3 in
  Alcotest.(check bool) "evadeTaintDroid hooked" true
    (log_contains o "name: evadeTaintDroid");
  Alcotest.(check bool) "new string gets 0x1602" true
    (log_contains o "add taint 0x1602 to new string object");
  Alcotest.(check bool) "dvmInterpret frame log" true
    (log_contains o "Method Name: nativeCallback");
  Alcotest.(check bool) "frame shorty VL" true (log_contains o "Method Shorty: VL");
  Alcotest.(check bool) "taint injected into frame" true
    (log_contains o "add taint to new method frame")

let test_poc3_taintdroid_misses () =
  Alcotest.(check bool) "TaintDroid misses the callback flow" false
    (H.run H.Taintdroid_only CS.poc_case3).H.detected

(* ---- all case studies: vanilla leaks silently ---- *)

let test_vanilla_apps_still_leak_data () =
  (* the data actually leaves the device in every mode — only detection
     differs *)
  List.iter
    (fun app ->
      let o = H.run H.Vanilla app in
      Alcotest.(check bool)
        (app.H.app_name ^ " emits traffic or file writes")
        true
        (o.H.transmissions <> [] || o.H.file_writes <> []))
    (Ndroid_apps.Cases.all @ CS.all)

(* ---- CF-Bench ---- *)

let test_cfbench_runs_everywhere () =
  List.iter
    (fun mode ->
      let device = H.boot CF.app in
      CF.prepare device;
      (match mode with
       | H.Vanilla -> Ndroid_taintdroid.Taintdroid.vanilla device
       | H.Taintdroid_only -> ignore (Ndroid_taintdroid.Taintdroid.attach device)
       | H.Droidscope_mode -> ignore (Ndroid_core.Droidscope.attach device)
       | H.Ndroid_full -> ignore (Ndroid_core.Ndroid.attach device));
      List.iter (fun w -> w.CF.w_run device ~iterations:32) CF.workloads)
    [ H.Vanilla; H.Taintdroid_only; H.Droidscope_mode; H.Ndroid_full ]

let test_cfbench_no_false_positives () =
  let device = H.boot CF.app in
  CF.prepare device;
  ignore (Ndroid_core.Ndroid.attach device);
  List.iter (fun w -> w.CF.w_run device ~iterations:64) CF.workloads;
  Alcotest.(check int) "benchmarks leak nothing" 0
    (A.Sink_monitor.leak_count (Device.monitor device))

let test_cfbench_disk_write_writes () =
  let device = H.boot CF.app in
  CF.prepare device;
  (List.find (fun w -> w.CF.w_name = "Native Disk Write") CF.workloads).CF.w_run
    device ~iterations:4;
  Alcotest.(check bool) "file written" true
    (String.length (A.Filesystem.contents (Device.fs device) "/sdcard/cfbench_out.dat")
     = 4 * 64)

let suite =
  [ Alcotest.test_case "QQ: only NDroid detects" `Quick
      test_qq_detected_by_ndroid_only;
    Alcotest.test_case "QQ: URL shape" `Quick test_qq_url_shape;
    Alcotest.test_case "QQ: taint 0x202" `Quick test_qq_taint_is_0x202;
    Alcotest.test_case "QQ: Fig.6 log" `Quick test_qq_log_matches_fig6;
    Alcotest.test_case "ePhone: only NDroid detects" `Quick test_ephone_detected;
    Alcotest.test_case "ePhone: SIP REGISTER" `Quick test_ephone_sip_register;
    Alcotest.test_case "ePhone: leak at sendto" `Quick test_ephone_leak_at_sendto;
    Alcotest.test_case "PoC2: file contents" `Quick test_poc2_file_contents;
    Alcotest.test_case "PoC2: Fig.8 log" `Quick test_poc2_log_matches_fig8;
    Alcotest.test_case "PoC2: Fig.8 FILE*" `Quick test_poc2_fig8_file_ptr;
    Alcotest.test_case "PoC3: detected with 0x1602" `Quick
      test_poc3_detected_with_0x1602;
    Alcotest.test_case "PoC3: Fig.9 log" `Quick test_poc3_log_matches_fig9;
    Alcotest.test_case "PoC3: TaintDroid misses" `Quick test_poc3_taintdroid_misses;
    Alcotest.test_case "vanilla apps still leak" `Quick
      test_vanilla_apps_still_leak_data;
    Alcotest.test_case "CF-Bench runs everywhere" `Quick test_cfbench_runs_everywhere;
    Alcotest.test_case "CF-Bench no false positives" `Quick
      test_cfbench_no_false_positives;
    Alcotest.test_case "CF-Bench disk write" `Quick test_cfbench_disk_write_writes ]

(* ---- a different device profile changes what leaks, not whether ---- *)

let test_custom_profile_flows_through () =
  let profile =
    { A.Device_profile.default with
      A.Device_profile.imei = "999000111222333";
      contacts =
        [ { A.Device_profile.contact_id = 7; name = "Zoe"; email = "z@z.example";
            phone = "777" } ] }
  in
  let app = Ndroid_apps.Cases.case1 in
  let device = Ndroid_runtime.Device.create ~profile () in
  Ndroid_runtime.Device.install_classes device app.H.classes;
  List.iter
    (fun (name, prog) ->
      Ndroid_runtime.Device.provide_library device name prog;
      Ndroid_runtime.Device.load_library device name)
    (app.H.build_libs Ndroid_runtime.Device.host_fn_addr);
  let nd = Ndroid_core.Ndroid.attach device in
  ignore (Ndroid_runtime.Device.run device (fst app.H.entry) (snd app.H.entry) [||]);
  match Ndroid_core.Ndroid.leaks nd with
  | [ leak ] ->
    Alcotest.(check string) "custom IMEI leaked" "999000111222333"
      leak.A.Sink_monitor.data
  | leaks -> Alcotest.failf "expected one leak, got %d" (List.length leaks)

let suite =
  suite
  @ [ Alcotest.test_case "custom device profile" `Quick
        test_custom_profile_flows_through ]
