module H = Ndroid_apps.Harness
module Device = Ndroid_runtime.Device
module Syscalls = Ndroid_android.Syscalls
module Jni_names = Ndroid_jni.Jni_names

(* address -> name over the catalogued JNI and libc/libm surface, built
   once from the host-function layout every device mounts *)
let inverse =
  let inverse = Hashtbl.create 256 in
  List.iter
    (fun n ->
      match Device.host_fn_addr n with
      | Some a -> if not (Hashtbl.mem inverse a) then Hashtbl.add inverse a n
      | None -> ())
    (Syscalls.hooked @ Syscalls.modeled_libc @ Syscalls.modeled_libm
    @ List.map fst Jni_names.functions);
  inverse

let input_of_app (app : H.app) =
  { Analyzer.in_name = app.H.app_name;
    in_classes = app.H.classes;
    in_libs = app.H.build_libs Device.host_fn_addr;
    in_entries = [ app.H.entry ];
    in_resolve =
      (fun a ->
        match Hashtbl.find_opt inverse a with
        | Some n -> Some n
        | None -> Hashtbl.find_opt inverse (a land lnot 1)) }

let verdict_of_app app = Analyzer.analyze (input_of_app app)
