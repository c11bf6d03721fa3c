(* Artifact containers: the dex-like class image and the .so-like library
   image must roundtrip bit-exactly and survive real use (run an app whose
   classes and native code were reloaded from the virtual SD card). *)

module Dexfile = Ndroid_dalvik.Dexfile
module Sofile = Ndroid_arm.Sofile
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Classes = Ndroid_dalvik.Classes
module Device = Ndroid_runtime.Device
module A = Ndroid_android
module H = Ndroid_apps.Harness

let test_dex_roundtrip_all_apps () =
  (* every bundled app's classes survive serialization structurally intact *)
  List.iter
    (fun app ->
      let img = Dexfile.to_string app.H.classes in
      let back = Dexfile.of_string img in
      Alcotest.(check bool)
        (app.H.app_name ^ " classes roundtrip")
        true
        (back = app.H.classes))
    (Ndroid_apps.Cases.all @ Ndroid_apps.Case_studies.all
    @ [ Ndroid_apps.Evasion.app ])

let test_dex_magic_checked () =
  Alcotest.(check bool) "rejects garbage" true
    (match Dexfile.of_string "not a dex" with
     | exception Dexfile.Bad_dex _ -> true
     | _ -> false);
  let img = Dexfile.to_string Ndroid_apps.Cases.case1.H.classes in
  let corrupt = String.sub img 0 (String.length img - 3) in
  Alcotest.(check bool) "rejects truncation" true
    (match Dexfile.of_string corrupt with
     | exception Dexfile.Bad_dex _ -> true
     | _ -> false)

let test_dex_string_pool_dedups () =
  (* the same class name referenced many times is stored once *)
  let classes = Ndroid_apps.Case_studies.qq_phonebook.H.classes in
  let img = Dexfile.to_string classes in
  let count_occurrences hay needle =
    let nl = String.length needle in
    let rec loop i acc =
      if i + nl > String.length hay then acc
      else if String.sub hay i nl = needle then loop (i + 1) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check int) "LoginUtil appears once" 1
    (count_occurrences img "Lcom/tencent/tccsync/LoginUtil;")

let test_so_roundtrip () =
  let prog =
    Asm.assemble ~base:0x4A000000
      [ Asm.Label "f";
        Asm.I (Insn.mov 0 (Insn.Imm 9));
        Asm.I Insn.bx_lr;
        Asm.Label "data";
        Asm.Word 0xCAFE ]
  in
  let back = Sofile.of_string (Sofile.to_string prog) in
  Alcotest.(check int) "base" (Asm.base prog) (Asm.base back);
  Alcotest.(check bool) "code" true (Asm.code prog = Asm.code back);
  Alcotest.(check bool) "symbols" true
    (List.sort compare (Asm.symbols prog) = List.sort compare (Asm.symbols back));
  Alcotest.(check bool) "mode" true (Asm.mode prog = Asm.mode back)

let test_so_thumb_roundtrip () =
  let prog =
    Asm.assemble ~mode:Ndroid_arm.Cpu.Thumb ~base:0x4A001000
      [ Asm.Label "t"; Asm.I (Insn.movs 0 (Insn.Imm 3)); Asm.I Insn.bx_lr ]
  in
  let back = Sofile.of_string (Sofile.to_string prog) in
  Alcotest.(check bool) "thumb mode kept" true (Asm.mode back = Ndroid_arm.Cpu.Thumb);
  Alcotest.(check int) "fn addr keeps thumb bit" (Asm.fn_addr prog "t")
    (Asm.fn_addr back "t")

let test_app_runs_from_artifacts () =
  (* serialize case1' to the virtual SD card, read both artifacts back,
     install, run: the leak is still caught *)
  let source = Ndroid_apps.Cases.case1' in
  let device = Device.create () in
  let fs = Device.fs device in
  (* "build the APK" *)
  A.Filesystem.set_contents fs "/data/app/case1p/classes.dex"
    (Dexfile.to_string source.H.classes);
  List.iter
    (fun (name, prog) ->
      A.Filesystem.set_contents fs
        ("/data/app/case1p/lib/" ^ name ^ ".so")
        (Sofile.to_string prog))
    (source.H.build_libs Device.host_fn_addr);
  (* "install from the APK" *)
  Device.install_classes device
    (Dexfile.of_string (A.Filesystem.contents fs "/data/app/case1p/classes.dex"));
  Device.provide_library device "case1p"
    (Sofile.of_string (A.Filesystem.contents fs "/data/app/case1p/lib/case1p.so"));
  Device.load_library device "case1p";
  let nd = Ndroid_core.Ndroid.attach device in
  ignore (Device.run device "Lcom/ndroid/demos/Case1p;" "main" [||]);
  Alcotest.(check int) "leak caught from reloaded artifacts" 1
    (List.length (Ndroid_core.Ndroid.leaks nd))

let prop_dex_roundtrip_random_method =
  (* random bytecode methods roundtrip *)
  let open QCheck in
  let module B = Ndroid_dalvik.Bytecode in
  let module Dvalue = Ndroid_dalvik.Dvalue in
  let insn_gen =
    let open Gen in
    let reg = int_bound 15 in
    oneof
      [ map2 (fun d v -> B.Const (d, Dvalue.Int (Int32.of_int v))) reg (int_bound 10000);
        map2 (fun d s -> B.Move (d, s)) reg reg;
        map3 (fun d a b -> B.Binop (B.Xor, d, a, b)) reg reg reg;
        map2 (fun d t -> B.Ifz (B.Eq, d, t land 0xFF)) reg (int_bound 1000);
        map (fun t -> B.Goto (t land 0xFF)) (int_bound 1000);
        map2 (fun d s -> B.Const_string (d, Printf.sprintf "s%d" s)) reg
          (int_bound 50);
        map3 (fun v o f ->
            B.Iget (v, o, { B.f_class = "LC;"; f_name = Printf.sprintf "f%d" f }))
          reg reg (int_bound 5);
        map2 (fun d first ->
            B.Packed_switch (d, Int32.of_int first, [| 1; 2; 3 |]))
          reg (int_bound 100) ]
  in
  Test.make ~name:"random methods roundtrip through dex" ~count:200
    (make
       Gen.(list_size (int_range 1 20) insn_gen)
       ~print:(fun insns -> String.concat "; " (List.map B.to_string insns)))
    (fun insns ->
      let m =
        { Classes.m_class = "LC;"; m_name = "m"; m_shorty = "V"; m_static = true;
          m_registers = 16;
          m_body = Classes.Bytecode (Array.of_list insns, []) }
      in
      let cls =
        { Classes.c_name = "LC;"; c_super = None; c_fields = []; c_methods = [ m ] }
      in
      Dexfile.of_string (Dexfile.to_string [ cls ]) = [ cls ])

let suite =
  [ Alcotest.test_case "dex roundtrip (all apps)" `Quick test_dex_roundtrip_all_apps;
    Alcotest.test_case "dex rejects corruption" `Quick test_dex_magic_checked;
    Alcotest.test_case "dex string pool dedups" `Quick test_dex_string_pool_dedups;
    Alcotest.test_case "so roundtrip" `Quick test_so_roundtrip;
    Alcotest.test_case "so thumb roundtrip" `Quick test_so_thumb_roundtrip;
    Alcotest.test_case "app runs from reloaded artifacts" `Quick
      test_app_runs_from_artifacts;
    QCheck_alcotest.to_alcotest prop_dex_roundtrip_random_method ]

let test_packed_app_classifies_type1 () =
  (* a scenario app that calls System.loadLibrary packs to artifacts the
     binary classifier marks Type I *)
  let app = Ndroid_apps.Cases.case1 in
  let entries =
    ("classes.dex", Dexfile.to_string app.H.classes)
    :: List.map
         (fun (n, prog) -> ("lib/armeabi/lib" ^ n ^ ".so", Sofile.to_string prog))
         (app.H.build_libs Device.host_fn_addr)
  in
  let apk = { Ndroid_corpus.Apk.apk_package = "case1"; entries } in
  Alcotest.(check string) "Type I" "Type I"
    (Ndroid_corpus.Classifier.classification_name (Ndroid_corpus.Apk.classify apk))

let suite =
  suite
  @ [ Alcotest.test_case "packed scenario app is Type I" `Quick
        test_packed_app_classifies_type1 ]
