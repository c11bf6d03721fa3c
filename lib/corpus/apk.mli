(** APK materialization: from the symbolic {!App_model} to real artifacts,
    and classification straight off those artifacts.

    The symbolic corpus scales to the full 227,911 apps; this module closes
    the loop on realism: {!of_app_model} synthesizes an actual binary
    [classes.dex] (whose load calls are genuine [invoke-static
    Ljava/lang/System;->loadLibrary] instructions inside method bodies),
    embedded dex blobs, and [.so] images — and {!classify} re-derives the
    Sec. III verdict by {e parsing those bytes}, exactly the way the
    paper's static scan over downloaded APKs worked.  A property test checks
    the artifact-level verdict agrees with the symbolic classifier on every
    sampled app. *)

type t = {
  apk_package : string;
  entries : (string * string) list;
      (** path → bytes: ["classes.dex"], ["assets/*.dex"],
          ["lib/<abi>/lib*.so"] *)
}

val of_app_model : App_model.t -> t
(** Synthesize the artifacts the model describes. *)

val main_class_of_dex : string -> App_model.dex -> Ndroid_dalvik.Classes.class_def
(** The materialized [L<package>/Main;] class whose static [onCreate]
    performs the dex's method references with a def-use chain from source
    results to sink arguments.  Exposed so a dynamic harness can execute
    the same class the dex image serializes. *)

val native_decl_class : string -> Ndroid_dalvik.Classes.class_def
(** A class declaring one [native] method, as Type-I/II dexes carry. *)

val native_lib : unit -> Ndroid_arm.Asm.program
(** The one library every market app ships ([JNI_OnLoad: mov r0, #4;
    bx lr]), assembled afresh on each call: a program carries mutable
    code bytes and a symbol table, so no two devices share one.
    {!of_app_model} writes its bytes, serialized once per process. *)

val classify : t -> Classifier.classification
(** Parse the dex images and scan the decoded method bodies for
    [System.loadLibrary]/[System.load] invocations; inspect the lib
    entries.  @raise Ndroid_dalvik.Dexfile.Bad_dex on corrupt images. *)

val dex_calls_load : string -> bool
(** Scan one binary dex image. *)
