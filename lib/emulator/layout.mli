(** Guest address-space layout.

    Mirrors the memory map of an Android process as the paper's logs show
    it: system libraries around 0x40000000 ([libdvm.so], [libc.so],
    [libm.so]), the Java heap at 0x41xxxxxx (Fig. 6's String object at
    0x412a3320), the native heap at 0x2axxxxxx (Fig. 8's C strings at
    0x2a141b90), and third-party app libraries at 0x4axxxxxx (Fig. 8's
    native method entry at 0x4a2c7d88). *)

val libdvm_base : int
val libc_base : int
val libm_base : int
val app_lib_base : int
val stack_top : int

val return_sentinel : int
(** PC value meaning "return to the host caller"; never a real address. *)

val in_app_lib : int -> bool

val regions : (string * int * int) list
(** The static memory map as (name, base, size), used by the OS-level view
    reconstructor. *)
