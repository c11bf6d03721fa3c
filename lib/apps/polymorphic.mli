(** Polymorphic JNI malware.

    The paper's conclusion: NDroid can "discover polymorphic malicious apps
    realized by JNI" — apps whose native code selects a different leak
    route at runtime, so no single Java-visible signature exists.

    One native function, three morphs chosen by a route argument computed at
    runtime: direct native [send] (case 2), native file write through
    [fopen]/[fprintf] (case 2, different sink), and rebuild-and-callback
    through [NewStringUTF] + [CallStaticVoidMethod] (case 3 shape).  The
    route dispatch is native conditional branches, so the instruction tracer
    crosses live control flow on every run. *)

val variants : Harness.app list
(** Three apps, one per morph, sharing the same classes and native library.
    Every one must be detected by NDroid and missed by TaintDroid. *)
