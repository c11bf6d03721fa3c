let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_key : int;  (* last-touched page cache; [no_key] = invalid *)
  mutable last_page : Bytes.t;
  (* code write-watch: translated/summarized code ranges.  [w_lo]/[w_hi]
     bound every watched byte so the store fast path pays two compares;
     a hit inside an actual range bumps [w_gen] (superblock validity) and
     notifies [w_notify] with the write's address and length (decode-cache
     eviction, per-library dirty marking for summaries). *)
  mutable w_lo : int;
  mutable w_hi : int;
  mutable w_ranges : (int * int) list;
  mutable w_gen : int;
  mutable w_notify : int -> int -> unit;
}

let no_key = min_int

let create () =
  { pages = Hashtbl.create 64;
    last_key = no_key;
    last_page = Bytes.empty;
    w_lo = max_int;
    w_hi = min_int;
    w_ranges = [];
    w_gen = 0;
    w_notify = (fun _ _ -> ()) }

let watch_code m ~lo ~hi =
  if hi >= lo then begin
    m.w_ranges <- (lo, hi) :: m.w_ranges;
    if lo < m.w_lo then m.w_lo <- lo;
    if hi > m.w_hi then m.w_hi <- hi
  end

let code_gen m = m.w_gen
let on_code_write m f = m.w_notify <- f

let rec overlaps addr last = function
  | [] -> false
  | (lo, hi) :: rest -> (addr <= hi && last >= lo) || overlaps addr last rest

(* Slow path of the watch check: only reached for writes inside the global
   watched bounds, i.e. essentially only for writes into loaded library
   images (self-modifying / decrypting code, or stores into a library's
   embedded data words).  A loop storing into its library's data words
   takes this path on every store, so the range walk allocates nothing. *)
let watch_hit m addr len =
  if overlaps addr (addr + len - 1) m.w_ranges then begin
    m.w_gen <- m.w_gen + 1;
    m.w_notify addr len
  end

let[@inline] watch m addr len =
  if addr <= m.w_hi && addr + len - 1 >= m.w_lo then watch_hit m addr len

let page m addr =
  let key = addr lsr page_bits in
  if m.last_key = key then m.last_page
  else
    match Hashtbl.find_opt m.pages key with
    | Some p ->
      m.last_key <- key;
      m.last_page <- p;
      p
    | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace m.pages key p;
      m.last_key <- key;
      m.last_page <- p;
      p

let norm addr = addr land 0xFFFFFFFF

let read_u8 m addr =
  let addr = norm addr in
  Char.code (Bytes.get (page m addr) (addr land page_mask))

let write_u8 m addr v =
  let addr = norm addr in
  watch m addr 1;
  Bytes.set (page m addr) (addr land page_mask) (Char.chr (v land 0xFF))

(* Word-wide fast paths: an access that falls inside one page is a single
   fixed-width little-endian Bytes read/write instead of per-byte loops with
   a page lookup each. *)

let read_u16 m addr =
  let a = norm addr in
  let off = a land page_mask in
  if off <= page_size - 2 then Bytes.get_uint16_le (page m a) off
  else read_u8 m addr lor (read_u8 m (addr + 1) lsl 8)

let read_u32 m addr =
  let a = norm addr in
  let off = a land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page m a) off) land 0xFFFFFFFF
  else
    read_u8 m addr
    lor (read_u8 m (addr + 1) lsl 8)
    lor (read_u8 m (addr + 2) lsl 16)
    lor (read_u8 m (addr + 3) lsl 24)

let write_u16 m addr v =
  let a = norm addr in
  let off = a land page_mask in
  watch m a 2;
  if off <= page_size - 2 then Bytes.set_uint16_le (page m a) off (v land 0xFFFF)
  else begin
    write_u8 m addr v;
    write_u8 m (addr + 1) (v lsr 8)
  end

let write_u32 m addr v =
  let a = norm addr in
  let off = a land page_mask in
  watch m a 4;
  if off <= page_size - 4 then Bytes.set_int32_le (page m a) off (Int32.of_int v)
  else begin
    write_u8 m addr v;
    write_u8 m (addr + 1) (v lsr 8);
    write_u8 m (addr + 2) (v lsr 16);
    write_u8 m (addr + 3) (v lsr 24)
  end

let read_bytes m addr n =
  let b = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    let a = norm (addr + !pos) in
    let off = a land page_mask in
    let chunk = min (n - !pos) (page_size - off) in
    Bytes.blit (page m a) off b !pos chunk;
    pos := !pos + chunk
  done;
  b

let write_bytes m addr b =
  let n = Bytes.length b in
  if n > 0 then watch m (norm addr) n;
  let pos = ref 0 in
  while !pos < n do
    let a = norm (addr + !pos) in
    let off = a land page_mask in
    let chunk = min (n - !pos) (page_size - off) in
    Bytes.blit b !pos (page m a) off chunk;
    pos := !pos + chunk
  done

let write_string m addr s = write_bytes m addr (Bytes.of_string s)

let read_cstring m addr =
  let max = 65536 in
  let buf = Buffer.create 32 in
  let rec loop i =
    if i >= max then Buffer.contents buf
    else
      let c = read_u8 m (addr + i) in
      if c = 0 then Buffer.contents buf
      else (
        Buffer.add_char buf (Char.chr c);
        loop (i + 1))
  in
  loop 0

let write_cstring m addr s =
  write_string m addr s;
  write_u8 m (addr + String.length s) 0

let read_f32 m addr = Int32.float_of_bits (Int32.of_int (read_u32 m addr))

let read_f64 m addr =
  let lo = Int64.of_int (read_u32 m addr)
  and hi = Int64.of_int (read_u32 m (addr + 4)) in
  Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32))

let write_f32 m addr f =
  write_u32 m addr (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)

let write_f64 m addr f =
  let bits = Int64.bits_of_float f in
  write_u32 m addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  write_u32 m (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

let pages_touched m = Hashtbl.length m.pages
