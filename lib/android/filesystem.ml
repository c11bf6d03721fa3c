type write_record = { w_path : string; w_data : string }

type descriptor = { d_path : string; mutable d_pos : int; mutable d_open : bool }

type t = {
  files : (string, Buffer.t) Hashtbl.t;
  fds : (int, descriptor) Hashtbl.t;
  mutable next_fd : int;
  mutable journal : write_record list;
  xattrs : (string, Ndroid_taint.Taint.t) Hashtbl.t;
}

let create () =
  { files = Hashtbl.create 16; fds = Hashtbl.create 16; next_fd = 3;
    journal = []; xattrs = Hashtbl.create 16 }

let xattr_taint fs path =
  Option.value ~default:Ndroid_taint.Taint.clear (Hashtbl.find_opt fs.xattrs path)

let add_xattr_taint fs path tag =
  if Ndroid_taint.Taint.is_tainted tag then
    Hashtbl.replace fs.xattrs path
      (Ndroid_taint.Taint.union (xattr_taint fs path) tag)

let set_xattr_taint fs path tag =
  if Ndroid_taint.Taint.is_clear tag then Hashtbl.remove fs.xattrs path
  else Hashtbl.replace fs.xattrs path tag

let buffer_of fs path =
  match Hashtbl.find_opt fs.files path with
  | Some b -> b
  | None ->
    let b = Buffer.create 64 in
    Hashtbl.replace fs.files path b;
    b

let open_file fs path mode =
  (match mode with
   | `Read -> if not (Hashtbl.mem fs.files path) then raise Not_found
   | `Write ->
     (* truncate *)
     Hashtbl.replace fs.files path (Buffer.create 64)
   | `Append -> ignore (buffer_of fs path));
  let fd = fs.next_fd in
  fs.next_fd <- fd + 1;
  Hashtbl.replace fs.fds fd { d_path = path; d_pos = 0; d_open = true };
  fd

let descriptor fs fd =
  match Hashtbl.find_opt fs.fds fd with
  | Some d when d.d_open -> d
  | Some _ -> invalid_arg (Printf.sprintf "fd %d is closed" fd)
  | None -> invalid_arg (Printf.sprintf "fd %d unknown" fd)

let write fs fd data =
  let d = descriptor fs fd in
  Buffer.add_string (buffer_of fs d.d_path) data;
  fs.journal <- { w_path = d.d_path; w_data = data } :: fs.journal;
  String.length data

let read fs fd n =
  let d = descriptor fs fd in
  let b = buffer_of fs d.d_path in
  let available = Buffer.length b - d.d_pos in
  let count = min n (max 0 available) in
  let s = Buffer.sub b d.d_pos count in
  d.d_pos <- d.d_pos + count;
  s

let close fs fd =
  match Hashtbl.find_opt fs.fds fd with
  | Some d -> d.d_open <- false
  | None -> ()

let contents fs path =
  match Hashtbl.find_opt fs.files path with
  | Some b -> Buffer.contents b
  | None -> raise Not_found

let set_contents fs path data =
  let b = Buffer.create (String.length data) in
  Buffer.add_string b data;
  Hashtbl.replace fs.files path b

let writes fs = List.rev fs.journal

let path_of_fd fs fd =
  match Hashtbl.find_opt fs.fds fd with Some d -> Some d.d_path | None -> None
