(** The Section III classifier.

    "We pick out three types of apps that may use JNI, including (I) apps
    that invoke System.load() or System.loadLibrary() to load native
    libraries; (II) apps that contain native libraries without calling
    System.load() or System.loadLibrary(); (III) apps written in pure
    native code."

    Classification looks only at app artifacts — never at how the generator
    happened to construct the app. *)

type classification =
  | Type_I
  | Type_II of { loadable_via_embedded_dex : bool }
      (** [loadable_via_embedded_dex]: a compressed dex inside the APK
          contains the load invocation, so "once these apps dynamically
          load these dex files, they can load the native libraries" *)
  | Type_III
  | Not_native

val classify : App_model.t -> classification
val classification_name : classification -> string

val classify_dex_bytes :
  main_dex:string option -> embedded_dexes:string list -> has_libs:bool ->
  classification
(** Same verdict computed from binary APK entries ([Dexfile] images) instead
    of the symbolic app model; shares the classification core with
    {!classify} so the two cannot drift.
    @raise Ndroid_dalvik.Dexfile.Bad_dex on a malformed image. *)

val dex_bytes_call_load : string -> bool
(** Does this binary dex image invoke [System.loadLibrary]/[System.load]? *)
