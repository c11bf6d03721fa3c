module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict

type t = { dir : string; mutable hits : int; mutable misses : int }

let create ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  { dir; hits = 0; misses = 0 }

let path t key = Filename.concat t.dir (key ^ ".json")

(* Every writer needs a distinct tmp name for the write+rename to stay
   atomic.  The pid alone covered forked workers; domains share one pid,
   so a process-wide counter disambiguates them. *)
let tmp_seq = Atomic.make 0

let tmp_name final =
  Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let data =
      try Some (really_input_string ic (in_channel_length ic))
      with _ -> None
    in
    close_in_noerr ic;
    data

(* An entry is the hex MD5 of its bytes, a newline, then the bytes: a
   torn or altered entry fails the checksum and reads as a miss, never as
   some other report or blob. *)
let checked data =
  match String.index_opt data '\n' with
  | Some 32 ->
    let body = String.sub data 33 (String.length data - 33) in
    if String.sub data 0 32 = Digest.to_hex (Digest.string body) then Some body
    else None
  | _ -> None

let count t result =
  (match result with
   | Some _ -> t.hits <- t.hits + 1
   | None -> t.misses <- t.misses + 1);
  result

let read t key = Option.bind (read_file (path t key)) checked

let find_raw t ~key = count t (read t key)

let store_raw t ~key body =
  let final = path t key in
  let tmp = tmp_name final in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    output_string oc (Digest.to_hex (Digest.string body));
    output_char oc '\n';
    output_string oc body;
    close_out_noerr oc;
    (try Sys.rename tmp final with Sys_error _ -> ())

(* Reports are entries whose body is the report's canonical JSON. *)
let report_of_body body =
  match Json.of_string body with
  | Error _ -> None
  | Ok j -> Result.to_option (Verdict.report_of_json j)

let find t ~key = count t (Option.bind (read t key) report_of_body)

let store t ~key report =
  store_raw t ~key (Json.to_string (Verdict.report_to_json report))

let hits t = t.hits
let misses t = t.misses
