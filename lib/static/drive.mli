(** Glue between the static analyzer and packaged scenario apps.

    A {!Ndroid_apps.Harness.app} builds its native libraries against the
    host-function layout every device mounts; this module builds them
    against the same layout (no device is booted), inverts it over the
    catalogued JNI and libc/libm names (address → name), and hands the
    analyzer exactly the artifacts the dynamic runs see — so the E3
    cross-tabulation compares the two analyses over identical inputs. *)

val input_of_app : Ndroid_apps.Harness.app -> Analyzer.input
val verdict_of_app : Ndroid_apps.Harness.app -> Analyzer.verdict
