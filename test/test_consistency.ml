(* Cross-cutting consistency: the JNI taxonomy (Tables II-IV) matches what
   the device actually mounts, and no app/mode combination can crash the
   harness. *)

module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Jni_names = Ndroid_jni.Jni_names
module H = Ndroid_apps.Harness

let test_taxonomy_is_mounted () =
  (* the catalogue and the layout agree in both directions: every row is
     mounted in its own library, and every mounted host function has
     exactly one row, whose hook group is its library's hook engine *)
  let device = Device.create () in
  let machine = Device.machine device in
  let rows =
    Jni_names.functions
    @ List.map fst Ndroid_android.Libc_model.functions
    @ List.map fst Ndroid_android.Libm_model.functions
  in
  List.iter
    (fun (r : Jni_names.row) ->
      match
        Option.bind (Device.host_fn_addr r.Jni_names.name) (Machine.find_host_fn machine)
      with
      | Some hf when hf.Machine.hf_lib = Jni_names.lib_name r.Jni_names.lib -> ()
      | Some _ | None ->
        Alcotest.failf "row %s is not mounted in its library" r.Jni_names.name)
    rows;
  let mounted = ref 0 and unrowed = ref [] in
  List.iter
    (fun (lib, base, size) ->
      if List.mem lib [ "libdvm.so"; "libc.so"; "libm.so" ] then
        for addr = base to base + size - 1 do
          match Machine.find_host_fn machine addr with
          | None -> ()
          | Some hf -> (
            incr mounted;
            match
              List.filter
                (fun (r : Jni_names.row) ->
                  r.Jni_names.name = hf.Machine.hf_name
                  && Jni_names.lib_name r.Jni_names.lib = hf.Machine.hf_lib)
                rows
            with
            | [ r ] ->
              if
                (r.Jni_names.lib = Jni_names.Libdvm)
                = (r.Jni_names.group = Jni_names.Syslib)
              then Alcotest.failf "%s: hook group of the wrong engine" hf.Machine.hf_name;
              (match Device.host_row addr with
               | Some r' when r' == r -> ()
               | Some _ | None ->
                 Alcotest.failf "%s: the hook engines' lookup finds another row"
                   hf.Machine.hf_name)
            | _ -> unrowed := hf.Machine.hf_name :: !unrowed)
        done)
    Ndroid_emulator.Layout.regions;
  if !unrowed <> [] then
    Alcotest.failf "mounted without exactly one catalogue row: %s"
      (String.concat ", " (List.rev !unrowed));
  Alcotest.(check int) "mounted host functions" (List.length rows) !mounted

let test_sink_catalogs_consistent () =
  (* every native sink name in Syscalls.sinks is among the hooked calls *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " hooked") true
        (List.mem s Ndroid_android.Syscalls.hooked))
    Ndroid_android.Syscalls.sinks;
  (* every Java sink class resolves in a fresh VM *)
  let device = Device.create () in
  List.iter
    (fun (cls, m) ->
      ignore (Ndroid_dalvik.Vm.find_method (Device.vm device) cls m))
    Ndroid_android.Sinks.sink_catalog

let all_apps =
  (* sec6_batch re-lists ePhone; keep the first occurrence of each name *)
  List.fold_left
    (fun acc a ->
      if List.exists (fun b -> b.H.app_name = a.H.app_name) acc then acc
      else a :: acc)
    []
    (Ndroid_apps.Cases.all @ Ndroid_apps.Case_studies.all
    @ Ndroid_apps.Polymorphic.variants @ Ndroid_apps.Sec6_batch.apps
    @ [ Ndroid_apps.Evasion.app ])
  |> List.rev

let test_no_crash_matrix () =
  (* 20 apps x 4 modes: Harness.run must always return an outcome *)
  List.iter
    (fun app ->
      List.iter
        (fun mode -> ignore (H.run mode app))
        [ H.Vanilla; H.Taintdroid_only; H.Droidscope_mode; H.Ndroid_full ])
    all_apps

let test_fresh_devices_are_isolated () =
  (* a leak on one device never shows on another *)
  let o1 = H.run H.Ndroid_full Ndroid_apps.Cases.case2 in
  let device2 = H.boot Ndroid_apps.Cases.case2 in
  Alcotest.(check bool) "first device leaked" true (o1.H.leaks <> []);
  Alcotest.(check int) "second device clean" 0
    (Ndroid_android.Sink_monitor.leak_count (Device.monitor device2))

let test_app_names_unique () =
  let names = List.map (fun a -> a.H.app_name) all_apps in
  Alcotest.(check int) "no duplicate app names" (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [ Alcotest.test_case "JNI taxonomy fully mounted" `Quick test_taxonomy_is_mounted;
    Alcotest.test_case "sink catalogs consistent" `Quick
      test_sink_catalogs_consistent;
    Alcotest.test_case "no-crash matrix (20 apps x 4 modes)" `Quick
      test_no_crash_matrix;
    Alcotest.test_case "fresh devices isolated" `Quick
      test_fresh_devices_are_isolated;
    Alcotest.test_case "app names unique" `Quick test_app_names_unique ]
