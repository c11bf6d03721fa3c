module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory

type ctx = {
  fs : Filesystem.t;
  net : Network.t;
  heap : Native_heap.t;
  files : (int, int) Hashtbl.t;  (* FILE* -> fd *)
  mutable file_bump : int;
  mutable dl_open : (string -> int) option;
      (* the runtime's dynamic loader: library name -> handle (0 on error) *)
  mutable dl_sym : (int -> string -> int) option;
      (* handle -> symbol -> address (0 when absent) *)
}

let create_ctx fs net heap =
  (* FILE structures live in libc's data segment; the first stream lands at
     the address visible in the paper's Fig. 8 log. *)
  { fs; net; heap; files = Hashtbl.create 8; file_bump = 0x4006fd44;
    dl_open = None; dl_sym = None }

let mask32 = 0xFFFFFFFF

let arg cpu mem i =
  if i < 4 then Cpu.reg cpu i else Memory.read_u32 mem (Cpu.sp cpu + (4 * (i - 4)))

let ret cpu v = Cpu.set_reg cpu 0 (v land mask32)

let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

type vararg = Str of { addr : int; value : string } | Num of int

let format_args mem cpu ~fmt ~first =
  let fmt_s = Memory.read_cstring mem fmt in
  let buf = Buffer.create (String.length fmt_s + 16) in
  let consumed = ref [] in
  let argi = ref first in
  let next_arg () =
    let v = arg cpu mem !argi in
    incr argi;
    v
  in
  let n = String.length fmt_s in
  let rec go i =
    if i >= n then ()
    else if fmt_s.[i] = '%' && i + 1 < n then begin
      (match fmt_s.[i + 1] with
       | 's' ->
         let addr = next_arg () in
         let value = Memory.read_cstring mem addr in
         consumed := Str { addr; value } :: !consumed;
         Buffer.add_string buf value
       | 'd' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (string_of_int (signed v))
       | 'u' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (string_of_int v)
       | 'x' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (Printf.sprintf "%x" v)
       | 'c' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_char buf (Char.chr (v land 0xFF))
       | '%' -> Buffer.add_char buf '%'
       | c ->
         Buffer.add_char buf '%';
         Buffer.add_char buf c);
      go (i + 2)
    end
    else begin
      Buffer.add_char buf fmt_s.[i];
      go (i + 1)
    end
  in
  go 0;
  (Buffer.contents buf, List.rev !consumed)

let file_fd ctx file_ptr = Hashtbl.find_opt ctx.files file_ptr

let set_dl ctx ~dl_open ~dl_sym =
  ctx.dl_open <- Some dl_open;
  ctx.dl_sym <- Some dl_sym

let new_file ctx fd =
  let ptr = ctx.file_bump in
  ctx.file_bump <- ctx.file_bump + 0x54;
  Hashtbl.replace ctx.files ptr fd;
  ptr

let copy_bytes mem ~src ~dst ~len =
  (* snapshot first: memmove semantics for overlapping ranges *)
  let snap = Memory.read_bytes mem src len in
  Memory.write_bytes mem dst snap

let lower s = String.lowercase_ascii s

(* --- individual functions --- *)

let fn_memcpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 and n = arg cpu mem 2 in
  copy_bytes mem ~src ~dst ~len:n;
  ret cpu dst

let fn_memset _ctx cpu mem =
  let dst = arg cpu mem 0 and c = arg cpu mem 1 and n = arg cpu mem 2 in
  for i = 0 to n - 1 do
    Memory.write_u8 mem (dst + i) c
  done;
  ret cpu dst

let fn_memcmp _ctx cpu mem =
  let a = arg cpu mem 0 and b = arg cpu mem 1 and n = arg cpu mem 2 in
  let rec loop i =
    if i >= n then 0
    else
      let d = Memory.read_u8 mem (a + i) - Memory.read_u8 mem (b + i) in
      if d <> 0 then d else loop (i + 1)
  in
  ret cpu (loop 0)

let fn_memchr _ctx cpu mem =
  let s = arg cpu mem 0 and c = arg cpu mem 1 land 0xFF and n = arg cpu mem 2 in
  let rec loop i =
    if i >= n then 0
    else if Memory.read_u8 mem (s + i) = c then s + i
    else loop (i + 1)
  in
  ret cpu (loop 0)

let fn_strlen _ctx cpu mem =
  ret cpu (String.length (Memory.read_cstring mem (arg cpu mem 0)))

let str_compare ~ci ~limit cpu mem =
  let a = Memory.read_cstring mem (arg cpu mem 0)
  and b = Memory.read_cstring mem (arg cpu mem 1) in
  let a, b = if ci then (lower a, lower b) else (a, b) in
  let a, b =
    match limit with
    | Some n ->
      let cut s = if String.length s > n then String.sub s 0 n else s in
      (cut a, cut b)
    | None -> (a, b)
  in
  ret cpu (compare a b)

let fn_strcmp _ctx cpu mem = str_compare ~ci:false ~limit:None cpu mem

let fn_strncmp _ctx cpu mem =
  str_compare ~ci:false ~limit:(Some (arg cpu mem 2)) cpu mem

let fn_strcasecmp _ctx cpu mem = str_compare ~ci:true ~limit:None cpu mem

let fn_strncasecmp _ctx cpu mem =
  str_compare ~ci:true ~limit:(Some (arg cpu mem 2)) cpu mem

let fn_strcpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 in
  let s = Memory.read_cstring mem src in
  Memory.write_cstring mem dst s;
  ret cpu dst

let fn_strncpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 and n = arg cpu mem 2 in
  let s = Memory.read_cstring mem src in
  let len = min (String.length s) n in
  Memory.write_string mem dst (String.sub s 0 len);
  for i = len to n - 1 do
    Memory.write_u8 mem (dst + i) 0
  done;
  ret cpu dst

let fn_strcat _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 in
  let d = Memory.read_cstring mem dst and s = Memory.read_cstring mem src in
  Memory.write_cstring mem (dst + String.length d) s;
  ignore s;
  ret cpu dst

let find_char mem s c ~from_end =
  let str = Memory.read_cstring mem s in
  let pos =
    if from_end then String.rindex_opt str (Char.chr (c land 0xFF))
    else String.index_opt str (Char.chr (c land 0xFF))
  in
  match pos with Some i -> s + i | None -> 0

let fn_strchr _ctx cpu mem =
  ret cpu (find_char mem (arg cpu mem 0) (arg cpu mem 1) ~from_end:false)

let fn_strrchr _ctx cpu mem =
  ret cpu (find_char mem (arg cpu mem 0) (arg cpu mem 1) ~from_end:true)

let fn_strstr _ctx cpu mem =
  let hay_addr = arg cpu mem 0 in
  let hay = Memory.read_cstring mem hay_addr
  and needle = Memory.read_cstring mem (arg cpu mem 1) in
  if needle = "" then ret cpu hay_addr
  else begin
    let nl = String.length needle and hl = String.length hay in
    let rec loop i =
      if i + nl > hl then 0
      else if String.sub hay i nl = needle then hay_addr + i
      else loop (i + 1)
    in
    ret cpu (loop 0)
  end

let parse_int s =
  let s = String.trim s in
  let rec digits i = if i < String.length s && (s.[i] >= '0' && s.[i] <= '9') then digits (i+1) else i in
  let start = if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  let stop = digits start in
  if stop = start then 0 else int_of_string (String.sub s 0 stop)

let fn_atoi _ctx cpu mem = ret cpu (parse_int (Memory.read_cstring mem (arg cpu mem 0)))
let fn_atol = fn_atoi

let fn_strtoul _ctx cpu mem =
  let s = Memory.read_cstring mem (arg cpu mem 0) in
  let endp = arg cpu mem 1 in
  let v = parse_int s in
  if endp <> 0 then Memory.write_u32 mem endp (arg cpu mem 0 + String.length s);
  ret cpu v

let fn_malloc ctx cpu mem =
  ignore mem;
  ret cpu (Native_heap.malloc ctx.heap (arg cpu mem 0))

let fn_calloc ctx cpu mem =
  let n = arg cpu mem 0 * arg cpu mem 1 in
  let p = Native_heap.malloc ctx.heap n in
  for i = 0 to n - 1 do
    Memory.write_u8 mem (p + i) 0
  done;
  ret cpu p

let fn_free ctx cpu mem =
  ignore mem;
  Native_heap.free ctx.heap (arg cpu mem 0);
  ret cpu 0

let fn_realloc ctx cpu mem =
  let old = arg cpu mem 0 and n = arg cpu mem 1 in
  let fresh, old_size = Native_heap.realloc ctx.heap old n in
  if old <> 0 && old_size > 0 then
    copy_bytes mem ~src:old ~dst:fresh ~len:(min old_size n);
  ret cpu fresh

let fn_strdup ctx cpu mem =
  let s = Memory.read_cstring mem (arg cpu mem 0) in
  let p = Native_heap.malloc ctx.heap (String.length s + 1) in
  Memory.write_cstring mem p s;
  ret cpu p

let fn_sprintf _ctx cpu mem =
  let buf = arg cpu mem 0 in
  let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 1) ~first:2 in
  Memory.write_cstring mem buf rendered;
  ret cpu (String.length rendered)

let fn_snprintf _ctx cpu mem =
  let buf = arg cpu mem 0 and n = arg cpu mem 1 in
  let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 2) ~first:3 in
  let cut = if String.length rendered >= n then String.sub rendered 0 (max 0 (n - 1)) else rendered in
  Memory.write_cstring mem buf cut;
  ret cpu (String.length rendered)

let fn_sscanf _ctx cpu mem =
  (* minimal %d / %s support *)
  let input = Memory.read_cstring mem (arg cpu mem 0) in
  let fmt = Memory.read_cstring mem (arg cpu mem 1) in
  let tokens =
    String.split_on_char ' ' input |> List.filter (fun s -> s <> "")
  in
  let specs =
    let rec collect i acc =
      if i + 1 >= String.length fmt then List.rev acc
      else if fmt.[i] = '%' then collect (i + 2) (fmt.[i + 1] :: acc)
      else collect (i + 1) acc
    in
    collect 0 []
  in
  let rec fill i specs tokens matched =
    match (specs, tokens) with
    | [], _ | _, [] -> matched
    | spec :: specs', tok :: tokens' ->
      let dst = arg cpu mem (2 + i) in
      (match spec with
       | 'd' -> Memory.write_u32 mem dst (parse_int tok land mask32)
       | 's' -> Memory.write_cstring mem dst tok
       | _ -> ());
      fill (i + 1) specs' tokens' (matched + 1)
  in
  ret cpu (fill 0 specs tokens 0)

let fn_sysconf _ctx cpu mem =
  ignore mem;
  (* _SC_PAGESIZE and friends: one plausible constant. *)
  ret cpu 4096

(* --- stdio --- *)

let fn_fopen ctx cpu mem =
  let path = Memory.read_cstring mem (arg cpu mem 0) in
  let mode = Memory.read_cstring mem (arg cpu mem 1) in
  let open_mode =
    if String.length mode > 0 && mode.[0] = 'r' then `Read
    else if String.length mode > 0 && mode.[0] = 'a' then `Append
    else `Write
  in
  match Filesystem.open_file ctx.fs path open_mode with
  | fd -> ret cpu (new_file ctx fd)
  | exception Not_found -> ret cpu 0

let fn_fclose ctx cpu mem =
  let ptr = arg cpu mem 0 in
  (match file_fd ctx ptr with
   | Some fd ->
     Filesystem.close ctx.fs fd;
     Hashtbl.remove ctx.files ptr
   | None -> ());
  ignore mem;
  ret cpu 0

let with_file ctx cpu mem ~file_arg f =
  match file_fd ctx (arg cpu mem file_arg) with
  | Some fd -> f fd
  | None -> ret cpu 0

let fn_fwrite ctx cpu mem =
  with_file ctx cpu mem ~file_arg:3 (fun fd ->
      let ptr = arg cpu mem 0 and size = arg cpu mem 1 and n = arg cpu mem 2 in
      let data = Bytes.to_string (Memory.read_bytes mem ptr (size * n)) in
      ignore (Filesystem.write ctx.fs fd data);
      ret cpu n)

let fn_fread ctx cpu mem =
  with_file ctx cpu mem ~file_arg:3 (fun fd ->
      let ptr = arg cpu mem 0 and size = arg cpu mem 1 and n = arg cpu mem 2 in
      let data = Filesystem.read ctx.fs fd (size * n) in
      Memory.write_string mem ptr data;
      ret cpu (String.length data / max 1 size))

let fn_fputs ctx cpu mem =
  with_file ctx cpu mem ~file_arg:1 (fun fd ->
      let s = Memory.read_cstring mem (arg cpu mem 0) in
      ignore (Filesystem.write ctx.fs fd s);
      ret cpu (String.length s))

let fn_fputc ctx cpu mem =
  with_file ctx cpu mem ~file_arg:1 (fun fd ->
      let c = arg cpu mem 0 land 0xFF in
      ignore (Filesystem.write ctx.fs fd (String.make 1 (Char.chr c)));
      ret cpu c)

let fn_fgets ctx cpu mem =
  with_file ctx cpu mem ~file_arg:2 (fun fd ->
      let buf = arg cpu mem 0 and n = arg cpu mem 1 in
      let data = Filesystem.read ctx.fs fd (max 0 (n - 1)) in
      if data = "" then ret cpu 0
      else begin
        Memory.write_cstring mem buf data;
        ret cpu buf
      end)

let fn_getc ctx cpu mem =
  with_file ctx cpu mem ~file_arg:0 (fun fd ->
      let data = Filesystem.read ctx.fs fd 1 in
      ret cpu (if data = "" then -1 else Char.code data.[0]))

let fn_fprintf ctx cpu mem =
  with_file ctx cpu mem ~file_arg:0 (fun fd ->
      let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 1) ~first:2 in
      ignore (Filesystem.write ctx.fs fd rendered);
      ret cpu (String.length rendered))

let fn_fdopen ctx cpu mem =
  ignore mem;
  ret cpu (new_file ctx (arg cpu mem 0))

(* --- file descriptors --- *)

let fn_open ctx cpu mem =
  let path = Memory.read_cstring mem (arg cpu mem 0) in
  let flags = arg cpu mem 1 in
  let mode = if flags land 1 <> 0 || flags land 0x40 <> 0 then `Append else `Read in
  (match Filesystem.open_file ctx.fs path mode with
   | fd -> ret cpu fd
   | exception Not_found ->
     (* O_CREAT *)
     if flags land 0x40 <> 0 then begin
       Filesystem.set_contents ctx.fs path "";
       ret cpu (Filesystem.open_file ctx.fs path `Append)
     end
     else ret cpu (-1 land mask32))

let fn_close ctx cpu mem =
  ignore mem;
  Filesystem.close ctx.fs (arg cpu mem 0);
  Network.close ctx.net (arg cpu mem 0);
  ret cpu 0

let fn_write ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (match Filesystem.path_of_fd ctx.fs fd with
   | Some _ -> ignore (Filesystem.write ctx.fs fd data)
   | None -> (
     (* maybe a socket *)
     try ignore (Network.send ctx.net fd data) with Invalid_argument _ -> ()));
  ret cpu n

let fn_read ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  match Filesystem.path_of_fd ctx.fs fd with
  | Some _ ->
    let data = Filesystem.read ctx.fs fd n in
    Memory.write_string mem buf data;
    ret cpu (String.length data)
  | None -> ret cpu 0

let fn_mkdir _ctx cpu mem =
  ignore mem;
  ret cpu 0

let fn_stat _ctx cpu mem =
  ignore mem;
  ret cpu 0

let fn_mmap ctx cpu mem =
  ignore mem;
  ret cpu (Native_heap.malloc ctx.heap (arg cpu mem 1))

let fn_munmap ctx cpu mem =
  ignore mem;
  Native_heap.free ctx.heap (arg cpu mem 0);
  ret cpu 0

let fn_ret0 _ctx cpu mem =
  ignore mem;
  ret cpu 0

(* --- sockets --- *)

let fn_socket ctx cpu mem =
  ignore mem;
  ret cpu (Network.socket ctx.net)

let fn_connect ctx cpu mem =
  (* The simulated sockaddr is simply a C string naming the destination. *)
  let fd = arg cpu mem 0 in
  let dest = Memory.read_cstring mem (arg cpu mem 1) in
  (try
     Network.connect ctx.net fd dest;
     ret cpu 0
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_send ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (try ret cpu (Network.send ctx.net fd data)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_sendto ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let dest = Memory.read_cstring mem (arg cpu mem 4) in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (try ret cpu (Network.sendto ctx.net fd data dest)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_recv ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  (try
     let data = Network.recv ctx.net fd in
     let data = if String.length data > n then String.sub data 0 n else data in
     Memory.write_string mem buf data;
     ret cpu (String.length data)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let functions =
  let f name handler = (name, handler) in
  [ f "memcpy" fn_memcpy;
    f "memmove" fn_memcpy;
    f "memset" fn_memset;
    f "memcmp" fn_memcmp;
    f "memchr" fn_memchr;
    f "strlen" fn_strlen;
    f "strcmp" fn_strcmp;
    f "strncmp" fn_strncmp;
    f "strcasecmp" fn_strcasecmp;
    f "strncasecmp" fn_strncasecmp;
    f "strcpy" fn_strcpy;
    f "strncpy" fn_strncpy;
    f "strcat" fn_strcat;
    f "strchr" fn_strchr;
    f "strrchr" fn_strrchr;
    f "strstr" fn_strstr;
    f "atoi" fn_atoi;
    f "atol" fn_atol;
    f "strtoul" fn_strtoul;
    f "malloc" fn_malloc;
    f "calloc" fn_calloc;
    f "free" fn_free;
    f "realloc" fn_realloc;
    f "strdup" fn_strdup;
    f "sprintf" fn_sprintf;
    f "vsprintf" fn_sprintf;
    f "snprintf" fn_snprintf;
    f "vsnprintf" fn_snprintf;
    f "sscanf" fn_sscanf;
    f "sysconf" fn_sysconf;
    f "fopen" fn_fopen;
    f "fclose" fn_fclose;
    f "fwrite" fn_fwrite;
    f "fread" fn_fread;
    f "fputs" fn_fputs;
    f "fputc" fn_fputc;
    f "fgets" fn_fgets;
    f "getc" fn_getc;
    f "fprintf" fn_fprintf;
    f "vfprintf" fn_fprintf;
    f "fdopen" fn_fdopen;
    f "open" fn_open;
    f "close" fn_close;
    f "write" fn_write;
    f "read" fn_read;
    f "mkdir" fn_mkdir;
    f "stat" fn_stat;
    f "fstat" fn_stat;
    f "fcntl" fn_ret0;
    f "ioctl" fn_ret0;
    f "mmap" fn_mmap;
    f "munmap" fn_munmap;
    f "mprotect" fn_ret0;
    f "rename" fn_ret0;
    f "remove" fn_ret0;
    f "kill" fn_ret0;
    f "fork" fn_ret0;
    f "execve" fn_ret0;
    f "chown" fn_ret0;
    f "ptrace" fn_ret0;
    f "select" fn_ret0;
    f "listen" fn_ret0;
    f "accept" fn_ret0;
    f "bind" fn_ret0;
    f "dlopen" (fun ctx cpu mem ->
        let name = Memory.read_cstring mem (arg cpu mem 0) in
        let handle =
          match ctx.dl_open with Some dl -> dl name | None -> 0
        in
        ret cpu handle);
    f "dlsym" (fun ctx cpu mem ->
        let handle = arg cpu mem 0 in
        let sym = Memory.read_cstring mem (arg cpu mem 1) in
        let addr =
          match ctx.dl_sym with Some dl -> dl handle sym | None -> 0
        in
        ret cpu addr);
    f "dlclose" fn_ret0;
    f "socket" fn_socket;
    f "connect" fn_connect;
    f "send" fn_send;
    f "sendto" fn_sendto;
    f "recv" fn_recv;
    f "recvfrom" fn_recv ]
