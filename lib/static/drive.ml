module H = Ndroid_apps.Harness
module Device = Ndroid_runtime.Device

let input_of_app (app : H.app) =
  { Analyzer.in_name = app.H.app_name;
    in_classes = app.H.classes;
    in_libs = app.H.build_libs Device.host_fn_addr;
    in_entries = [ app.H.entry ] }

let verdict_of_app app = Analyzer.analyze (input_of_app app)

let apk_of_app (app : H.app) =
  { Ndroid_corpus.Apk.apk_package = app.H.app_name;
    entries =
      ("classes.dex", Ndroid_dalvik.Dexfile.to_string app.H.classes)
      :: List.map
           (fun (lib_name, prog) ->
             ("lib/armeabi/lib" ^ lib_name ^ ".so", Ndroid_arm.Sofile.to_string prog))
           (app.H.build_libs Device.host_fn_addr) }
