let header_len = 4

let max_frame = 16 * 1024 * 1024

(* v2 added the streaming-trace messages (Subscribe/Trace) and the
   Submit "trace" flag; a v1 peer would misread those frames, so the
   version byte went up. *)
let protocol_version = 2

let encode_len n =
  let b = Bytes.create header_len in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  b

let decode_len b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  Bytes.blit (encode_len n) 0 b 0 header_len;
  Bytes.blit_string payload 0 b header_len n;
  write_all fd b

let read_exactly fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !eof then None else Some b

let read_frame fd =
  match read_exactly fd header_len with
  | None -> None
  | Some hdr ->
    let len = decode_len hdr 0 in
    if len > max_frame then None
    else Option.map Bytes.to_string (read_exactly fd len)

(* ---- incremental parent-side reader ---- *)

type reader = {
  mutable buf : Bytes.t;
  mutable used : int;
  mutable refused : bool;  (* met a prefix over [max_frame] *)
}

let create_reader () = { buf = Bytes.create 8192; used = 0; refused = false }

let ensure_capacity r extra =
  let need = r.used + extra in
  if Bytes.length r.buf < need then begin
    let bigger = Bytes.create (max need (2 * Bytes.length r.buf)) in
    Bytes.blit r.buf 0 bigger 0 r.used;
    r.buf <- bigger
  end

(* Nothing past an oversized prefix is a frame: once refused, every byte
   read is discarded. *)
let completed_frames r =
  let frames = ref [] in
  let off = ref 0 in
  let continue = ref (not r.refused) in
  while !continue do
    if r.used - !off < header_len then continue := false
    else begin
      let len = decode_len r.buf !off in
      if len > max_frame then begin
        r.refused <- true;
        continue := false
      end
      else if r.used - !off - header_len < len then continue := false
      else begin
        frames := Bytes.sub_string r.buf (!off + header_len) len :: !frames;
        off := !off + header_len + len
      end
    end
  done;
  if r.refused then r.used <- 0
  else if !off > 0 then begin
    Bytes.blit r.buf !off r.buf 0 (r.used - !off);
    r.used <- r.used - !off
  end;
  List.rev !frames

let drain r fd =
  (* a refused reader still reads, so a select loop does not spin on the
     peer's bytes, but into a buffer that no longer grows *)
  if not r.refused then ensure_capacity r 65536;
  match Unix.read fd r.buf r.used (Bytes.length r.buf - r.used) with
  | 0 -> `Eof (completed_frames r)
  | n ->
    r.used <- r.used + n;
    let frames = completed_frames r in
    if r.refused then `Oversized frames else `Frames frames
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    `Eof (completed_frames r)

(* ---- tagged frames: the service protocol ---- *)

(* A tagged frame is an ordinary length-prefixed frame whose payload starts
   with two header bytes: the protocol version and a one-byte message tag.
   Reusing the v0 framing means the incremental [reader] above reassembles
   tagged traffic unchanged; only the payload interpretation differs.  The
   version byte exists so a stale client talking to a newer daemon (or
   vice versa) fails with one decisive error instead of silently
   misparsing JSON that happens to start plausibly. *)

let encode_tagged ~tag payload =
  let n = String.length payload + 2 in
  let b = Bytes.create (header_len + n) in
  Bytes.blit (encode_len n) 0 b 0 header_len;
  Bytes.set b header_len (Char.chr protocol_version);
  Bytes.set b (header_len + 1) tag;
  Bytes.blit_string payload 0 b (header_len + 2) (String.length payload);
  b

let write_tagged fd ~tag payload = write_all fd (encode_tagged ~tag payload)

let parse_tagged frame =
  let n = String.length frame in
  if n < 2 then
    Error
      (Printf.sprintf
         "protocol error: %d-byte frame is too short for a version+tag header"
         n)
  else
    let v = Char.code frame.[0] in
    if v <> protocol_version then
      Error
        (Printf.sprintf
           "protocol version mismatch: peer speaks v%d, this binary speaks \
            v%d — refusing to parse"
           v protocol_version)
    else Ok (frame.[1], String.sub frame 2 (n - 2))
