let () =
  Alcotest.run "ndroid"
    [ ("taint", Test_taint.suite);
      ("arm", Test_arm.suite);
      ("asm", Test_asm.suite);
      ("dalvik", Test_dalvik.suite);
      ("dalvik-diff", Test_dalvik_diff.suite);
      ("native-diff", Test_native_diff.suite);
      ("jni", Test_jni.suite);
      ("android", Test_android.suite);
      ("emulator", Test_emulator.suite);
      ("runtime", Test_runtime.suite);
      ("ndroid", Test_ndroid.suite);
      ("corpus", Test_corpus.suite);
      ("apps", Test_apps.suite);
      ("extensions", Test_extensions.suite);
      ("soundness", Test_soundness.suite);
      ("integration", Test_integration.suite);
      ("summaries", Test_summaries.suite);
      ("tools", Test_tools.suite);
      ("enforcement", Test_enforcement.suite);
      ("artifacts", Test_artifacts.suite);
      ("jni-surface", Test_jni_surface.suite);
      ("dynload", Test_dynload.suite);
      ("file-taint", Test_file_taint.suite);
      ("stress", Test_stress.suite);
      ("consistency", Test_consistency.suite);
      ("misc", Test_misc.suite);
      ("static", Test_static.suite);
      ("pipeline", Test_pipeline.suite);
      ("service", Test_service.suite);
      ("obs", Test_obs.suite);
      ("alloc", Test_alloc.suite);
      (* last: this suite spawns domains, and Unix.fork is illegal in
         OCaml 5 once any domain has ever existed in the process — every
         forking suite above must run first *)
      ("domains", Test_domains.suite) ]
