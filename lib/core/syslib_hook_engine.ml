module Taint = Ndroid_taint.Taint
module Device = Ndroid_runtime.Device
module Taint_engine = Ndroid_emulator.Taint_engine
module Machine = Ndroid_emulator.Machine
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module A = Ndroid_android
module Ring = Ndroid_obs.Ring
module J = Ndroid_jni.Jni_names

type t = {
  device : Device.t;
  engine : Taint_engine.t;
  log : Ring.t;
  mutable pre_regs : (string * int array) list;
  mutable pending_free : (int * int) option;  (* realloc: old ptr, old size *)
  mutable summaries : int;
  mutable sink_checks : int;
}

let summaries_applied t = t.summaries
let sink_checks t = t.sink_checks

let cstr_len mem addr = String.length (Memory.read_cstring mem addr) + 1

let note t = t.summaries <- t.summaries + 1

(* Union of the taints a printf-family call consumes: the format string's
   bytes, each %s argument's bytes, each numeric vararg's shadow slot. *)
let printf_taint t cpu mem ~fmt ~first =
  let rendered, varargs = A.Libc_model.format_args mem cpu ~fmt ~first in
  let tag = ref (Taint_engine.mem t.engine fmt (cstr_len mem fmt)) in
  List.iteri
    (fun i va ->
      let slot = first + i in
      let slot_taint =
        if slot < 4 then Taint_engine.reg t.engine slot
        else Taint_engine.mem t.engine (Cpu.sp cpu + (4 * (slot - 4))) 4
      in
      tag := Taint.union !tag slot_taint;
      match va with
      | A.Libc_model.Str { addr; value } ->
        let st = Taint_engine.mem t.engine addr (String.length value + 1) in
        if Taint.is_tainted st then begin
          Ring.logf t.log "t[%x] = %a" addr Taint.pp st;
          Ring.logf t.log "write: %s" value
        end;
        tag := Taint.union !tag st
      | A.Libc_model.Num _ -> ())
    varargs;
  (rendered, !tag)

let inspect ?scrub t ~sink ~taint ~data ~detail =
  (* [data] is a thunk: payloads are only materialised for real leaks *)
  t.sink_checks <- t.sink_checks + 1;
  if Taint.is_tainted taint then begin
    Ring.emit_sink_begin t.log ~sink;
    Ring.emit_sink t.log ~sink ~detail ~taint:(Taint.to_bits taint);
    (match
       A.Sink_monitor.decide (Device.monitor t.device) ~sink
         ~context:A.Sink_monitor.Native_context ~taint ~data:(data ()) ~detail
     with
     | `Allow -> ()
     | `Block -> (
       (* AppFence-style shadow data: scrub the payload before the modeled
          call reads it, so the effect proceeds with harmless bytes *)
       Ring.logf t.log "SinkHandler[%s]: BLOCKED (payload scrubbed)" sink;
       match scrub with Some f -> f () | None -> ()));
    Ring.emit_sink_end t.log ~sink
  end

let stamp_file_taint t fd tag =
  if Taint.is_tainted tag then
    match A.Filesystem.path_of_fd (Device.fs t.device) fd with
    | Some path -> A.Filesystem.add_xattr_taint (Device.fs t.device) path tag
    | None -> ()

let stamp_file_ptr_taint t file_ptr tag =
  match A.Libc_model.file_fd (Device.libc_ctx t.device) file_ptr with
  | Some fd -> stamp_file_taint t fd tag
  | None -> ()

let file_ptr_taint t file_ptr =
  match A.Libc_model.file_fd (Device.libc_ctx t.device) file_ptr with
  | Some fd -> (
    match A.Filesystem.path_of_fd (Device.fs t.device) fd with
    | Some path -> A.Filesystem.xattr_taint (Device.fs t.device) path
    | None -> Taint.clear)
  | None -> Taint.clear

let fd_detail t fd =
  match A.Filesystem.path_of_fd (Device.fs t.device) fd with
  | Some path -> path
  | None -> (
    match A.Network.dest_of (Device.net t.device) fd with
    | Some dest -> dest
    | None -> Printf.sprintf "fd:%d" fd)

let file_detail t file_ptr =
  match A.Libc_model.file_fd (Device.libc_ctx t.device) file_ptr with
  | Some fd -> fd_detail t fd
  | None -> Printf.sprintf "FILE@0x%x" file_ptr

let read_data mem addr n = Bytes.to_string (Memory.read_bytes mem addr (min n 4096))

(* replace a tainted payload with '*'s and drop its tags: the sink's effect
   then proceeds over harmless bytes *)
let scrub_range t mem addr n =
  for i = 0 to n - 1 do
    Memory.write_u8 mem (addr + i) (Char.code '*')
  done;
  Taint_engine.clear_mem t.engine addr n

let on_pre t name cpu mem =
  let r i = Cpu.reg cpu i in
  let rt i = Taint_engine.reg t.engine i in
  match name with
  (* ---- Table VI taint summaries (applied before the behaviour runs,
          like Listing 3's isBegin branch) ---- *)
  | "memcpy" | "memmove" ->
    note t;
    Taint_engine.copy_mem t.engine ~src:(r 1) ~dst:(r 0) ~len:(r 2);
    Taint_engine.set_reg t.engine 0 (rt 0)
  | "memset" ->
    note t;
    Taint_engine.set_mem t.engine (r 0) (r 2) (rt 1)
  | "strcpy" ->
    note t;
    Taint_engine.copy_mem t.engine ~src:(r 1) ~dst:(r 0) ~len:(cstr_len mem (r 1))
  | "strncpy" ->
    note t;
    let len = min (cstr_len mem (r 1)) (r 2) in
    Taint_engine.copy_mem t.engine ~src:(r 1) ~dst:(r 0) ~len
  | "strcat" ->
    note t;
    let dst_len = cstr_len mem (r 0) - 1 in
    Taint_engine.copy_mem t.engine ~src:(r 1) ~dst:(r 0 + dst_len)
      ~len:(cstr_len mem (r 1))
  | "free" ->
    note t;
    (match A.Native_heap.block_size (Device.native_heap t.device) (r 0) with
     | Some size -> Taint_engine.clear_mem t.engine (r 0) size
     | None -> ())
  | "realloc" ->
    note t;
    (match A.Native_heap.block_size (Device.native_heap t.device) (r 0) with
     | Some size -> t.pending_free <- Some (r 0, size)
     | None -> t.pending_free <- None)
  | "fopen" ->
    Ring.logf t.log "TrustCallHandler[fopen] begin";
    Ring.logf t.log "Open '%s'" (Memory.read_cstring mem (r 0));
    Ring.logf t.log "TrustCallHandler[fopen] end"
  | "fclose" -> Ring.logf t.log "TrustCallHandler[fclose] Close FILE@0x%x" (r 0)
  | _ -> ()

(* Table VII native sinks: the row's sink mark says whether a call is one
   and the name its leaks are reported under; the function says where its
   payload is. *)
let on_sink t ~sink name cpu mem =
  let r i = Cpu.reg cpu i in
  let rt i = Taint_engine.reg t.engine i in
  let mt addr n = Taint_engine.mem t.engine addr n in
  match name with
  | "send" ->
    let data () = read_data mem (r 1) (r 2) in
    inspect t ~sink ~taint:(mt (r 1) (r 2)) ~data ~detail:(fd_detail t (r 0))
      ~scrub:(fun () -> scrub_range t mem (r 1) (r 2))
  | "sendto" ->
    let data () = read_data mem (r 1) (r 2) in
    let dest = Memory.read_cstring mem (A.Libc_model.arg cpu mem 4) in
    inspect t ~sink ~taint:(mt (r 1) (r 2)) ~data ~detail:dest
      ~scrub:(fun () -> scrub_range t mem (r 1) (r 2))
  | "write" ->
    let data () = read_data mem (r 1) (r 2) in
    let tag = mt (r 1) (r 2) in
    stamp_file_taint t (r 0) tag;
    inspect t ~sink ~taint:tag ~data ~detail:(fd_detail t (r 0))
      ~scrub:(fun () -> scrub_range t mem (r 1) (r 2))
  | "fwrite" ->
    let n = r 1 * r 2 in
    let data () = read_data mem (r 0) n in
    let tag = mt (r 0) n in
    stamp_file_ptr_taint t (r 3) tag;
    inspect t ~sink ~taint:tag ~data ~detail:(file_detail t (r 3))
      ~scrub:(fun () -> scrub_range t mem (r 0) n)
  | "fputs" ->
    let len = cstr_len mem (r 0) - 1 in
    let data () = Memory.read_cstring mem (r 0) in
    let tag = mt (r 0) len in
    stamp_file_ptr_taint t (r 1) tag;
    inspect t ~sink ~taint:tag ~data ~detail:(file_detail t (r 1))
      ~scrub:(fun () -> scrub_range t mem (r 0) len)
  | "fputc" ->
    inspect t ~sink ~taint:(rt 0)
      ~data:(fun () -> String.make 1 (Char.chr (r 0 land 0xFF)))
      ~detail:(file_detail t (r 1))
  | "fprintf" | "vfprintf" ->
    let rendered, tag = printf_taint t cpu mem ~fmt:(r 1) ~first:2 in
    let scrub () =
      (* scrub every tainted %s source buffer the call is about to render *)
      let _, varargs = A.Libc_model.format_args mem cpu ~fmt:(r 1) ~first:2 in
      List.iter
        (fun va ->
          match va with
          | A.Libc_model.Str { addr; value } ->
            let len = String.length value in
            if Taint.is_tainted (Taint_engine.mem t.engine addr len) then
              scrub_range t mem addr len
          | A.Libc_model.Num _ -> ())
        varargs
    in
    stamp_file_ptr_taint t (r 0) tag;
    inspect t ~sink ~taint:tag ~data:(fun () -> rendered)
      ~detail:(file_detail t (r 0)) ~scrub
  | _ -> ()

(* Host functions whose post handler reads pre-call argument registers; only
   these pay the register snapshot on entry. *)
let needs_pre_regs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun n -> Hashtbl.replace tbl n ())
    [ "strlen"; "atoi"; "atol"; "strtoul"; "strtol"; "strcmp"; "strcasecmp";
      "strncmp"; "strncasecmp"; "memcmp"; "strchr"; "strrchr"; "strstr";
      "memchr"; "strdup"; "sprintf"; "vsprintf"; "snprintf"; "vsnprintf";
      "sscanf"; "fread"; "fgets"; "getc"; "read"; "strtod" ];
  fun name -> Hashtbl.mem tbl name

(* A libm function's result taint is the union of its argument registers'
   taints: one per single-precision argument, a pair per double, with a
   double result in r0:r1. *)
let on_math t ~arity ~single =
  note t;
  let tag = ref Taint.clear in
  for i = 0 to (if single then arity else 2 * arity) - 1 do
    tag := Taint.union !tag (Taint_engine.reg t.engine i)
  done;
  Taint_engine.set_reg t.engine 0 !tag;
  if not single then Taint_engine.set_reg t.engine 1 !tag

let on_post t name cpu mem pre_regs =
  let r i = Cpu.reg cpu i in
  let pre i = match pre_regs with Some a -> a.(i) | None -> r i in
  let mt addr n = Taint_engine.mem t.engine addr n in
  match name with
  | "strlen" | "atoi" | "atol" | "strtoul" | "strtol" ->
    note t;
    Taint_engine.set_reg t.engine 0 (mt (pre 0) (cstr_len mem (pre 0)))
  | "strcmp" | "strcasecmp" | "strncmp" | "strncasecmp" ->
    note t;
    Taint_engine.set_reg t.engine 0
      (Taint.union
         (mt (pre 0) (cstr_len mem (pre 0)))
         (mt (pre 1) (cstr_len mem (pre 1))))
  | "memcmp" ->
    note t;
    Taint_engine.set_reg t.engine 0
      (Taint.union (mt (pre 0) (pre 2)) (mt (pre 1) (pre 2)))
  | "strchr" | "strrchr" | "strstr" | "memchr" ->
    note t;
    Taint_engine.set_reg t.engine 0 (mt (pre 0) (cstr_len mem (pre 0)))
  | "strdup" ->
    note t;
    let len = cstr_len mem (pre 0) in
    if r 0 <> 0 then Taint_engine.copy_mem t.engine ~src:(pre 0) ~dst:(r 0) ~len
  | "malloc" | "calloc" | "mmap" ->
    note t;
    if r 0 <> 0 then
      (match A.Native_heap.block_size (Device.native_heap t.device) (r 0) with
       | Some size -> Taint_engine.clear_mem t.engine (r 0) size
       | None -> ())
  | "realloc" ->
    note t;
    (match t.pending_free with
     | Some (old_ptr, old_size) when r 0 <> 0 ->
       Taint_engine.copy_mem t.engine ~src:old_ptr ~dst:(r 0) ~len:old_size;
       if old_ptr <> r 0 then Taint_engine.clear_mem t.engine old_ptr old_size
     | Some _ | None -> ());
    t.pending_free <- None
  | "sprintf" | "vsprintf" ->
    note t;
    let _, tag = printf_taint t cpu mem ~fmt:(pre 1) ~first:2 in
    let written = cstr_len mem (pre 0) in
    Taint_engine.set_mem t.engine (pre 0) written tag
  | "snprintf" | "vsnprintf" ->
    note t;
    let _, tag = printf_taint t cpu mem ~fmt:(pre 2) ~first:3 in
    let written = cstr_len mem (pre 0) in
    Taint_engine.set_mem t.engine (pre 0) written tag
  | "sscanf" ->
    note t;
    (* every %-converted output inherits the input string's taint *)
    let input_taint = mt (pre 0) (cstr_len mem (pre 0)) in
    if Taint.is_tainted input_taint then begin
      let fmt = Memory.read_cstring mem (pre 1) in
      let n_specs =
        let count = ref 0 in
        String.iteri
          (fun i c -> if c = '%' && i + 1 < String.length fmt then incr count)
          fmt;
        !count
      in
      for i = 0 to n_specs - 1 do
        let dst = if 2 + i < 4 then pre (2 + i) else
            Memory.read_u32 mem (pre 13 + (4 * (2 + i - 4))) in
        Taint_engine.add_mem t.engine dst 4 input_taint
      done
    end
  | "fread" ->
    note t;
    let tag = file_ptr_taint t (pre 3) in
    if Taint.is_tainted tag then begin
      let n = pre 1 * pre 2 in
      Taint_engine.add_mem t.engine (pre 0) n tag;
      Taint_engine.set_reg t.engine 0 tag
    end
  | "fgets" ->
    note t;
    let tag = file_ptr_taint t (pre 2) in
    if Taint.is_tainted tag && r 0 <> 0 then begin
      Taint_engine.add_mem t.engine (pre 0) (cstr_len mem (pre 0)) tag;
      Taint_engine.set_reg t.engine 0 tag
    end
  | "getc" ->
    note t;
    let tag = file_ptr_taint t (pre 0) in
    if Taint.is_tainted tag then Taint_engine.set_reg t.engine 0 tag
  | "read" ->
    note t;
    let tag =
      match A.Filesystem.path_of_fd (Device.fs t.device) (pre 0) with
      | Some path -> A.Filesystem.xattr_taint (Device.fs t.device) path
      | None -> Taint.clear
    in
    if Taint.is_tainted tag then begin
      Taint_engine.add_mem t.engine (pre 1) (pre 2) tag;
      Taint_engine.set_reg t.engine 0 tag
    end
  | "strtod" ->
    note t;
    let tag = mt (pre 0) (cstr_len mem (pre 0)) in
    Taint_engine.set_reg t.engine 0 tag;
    Taint_engine.set_reg t.engine 1 tag
  | _ -> ()

let attach device engine log =
  let machine = Device.machine device in
  let t =
    { device;
      engine;
      log;
      pre_regs = [];
      pending_free = None;
      summaries = 0;
      sink_checks = 0 }
  in
  let syslib_row (hf : Machine.host_fn) =
    match Device.host_row hf.Machine.hf_addr with
    | Some ({ J.lib = J.Libc | J.Libm; _ } as row) -> Some row
    | Some _ | None -> None
  in
  Machine.add_listener machine (fun ev ->
      match ev with
      | Machine.Ev_host_pre hf -> (
        match syslib_row hf with
        | Some row -> (
          let cpu = Machine.cpu machine and mem = Machine.mem machine in
          let name = row.J.name in
          if needs_pre_regs name then
            t.pre_regs <- (name, Array.copy cpu.Cpu.regs) :: t.pre_regs;
          match row.J.effect with
          | J.Sink sink -> on_sink t ~sink name cpu mem
          | _ -> on_pre t name cpu mem)
        | None -> ())
      | Machine.Ev_host_post hf -> (
        match syslib_row hf with
        | Some row -> (
          let cpu = Machine.cpu machine and mem = Machine.mem machine in
          let name = row.J.name in
          let pre =
            match t.pre_regs with
            | (n, regs) :: rest when n = name ->
              t.pre_regs <- rest;
              Some regs
            | _ -> None
          in
          match row.J.shape with
          | J.Math { arity; single } -> on_math t ~arity ~single
          | _ -> on_post t name cpu mem pre)
        | None -> ())
      | Machine.Ev_branch _ | Machine.Ev_svc _ -> ());
  t
