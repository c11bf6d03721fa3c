let libdvm_base = 0x40000000
let libdvm_size = 0x00080000
let libc_base = 0x40100000
let libc_size = 0x00080000
let libm_base = 0x40200000
let libm_size = 0x00040000
let app_lib_base = 0x4A000000
let app_lib_size = 0x00400000
let java_heap_base = 0x41000000
let native_heap_base = 0x2A000000
let native_heap_size = 0x04000000
let stack_top = 0x60000000
let stack_size = 0x00100000
let return_sentinel = 0xFFFF0000

let in_range ~base ~size addr = addr >= base && addr < base + size
let in_app_lib addr = in_range ~base:app_lib_base ~size:app_lib_size addr

let regions =
  [ ("libdvm.so", libdvm_base, libdvm_size);
    ("libc.so", libc_base, libc_size);
    ("libm.so", libm_base, libm_size);
    ("app_native_lib", app_lib_base, app_lib_size);
    ("dalvik-heap", java_heap_base, 0x00800000);
    ("native-heap", native_heap_base, native_heap_size);
    ("stack", stack_top - stack_size, stack_size) ]
