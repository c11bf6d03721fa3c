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

(* An entry is the hex MD5 of the report bytes, a newline, then the
   bytes: a torn or altered entry fails the checksum and reads as a
   miss, never as some other report. *)
let checked data =
  match String.index_opt data '\n' with
  | Some 32 ->
    let body = String.sub data 33 (String.length data - 33) in
    if String.sub data 0 32 = Digest.to_hex (Digest.string body) then Some body
    else None
  | _ -> None

let find t ~key =
  let result =
    match Option.bind (read_file (path t key)) checked with
    | None -> None
    | Some body -> (
      match Json.of_string body with
      | Error _ -> None
      | Ok j -> (
        match Verdict.report_of_json j with
        | Ok report -> Some report
        | Error _ -> None))
  in
  (match result with
   | Some _ -> t.hits <- t.hits + 1
   | None -> t.misses <- t.misses + 1);
  result

let store t ~key report =
  let final = path t key in
  let tmp = tmp_name final in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    let body = Json.to_string (Verdict.report_to_json report) in
    output_string oc (Digest.to_hex (Digest.string body));
    output_char oc '\n';
    output_string oc body;
    close_out_noerr oc;
    (try Sys.rename tmp final with Sys_error _ -> ())

(* Raw side entries (native taint summaries, keyed by library digest):
   opaque blobs in the same directory under their own key namespace, with
   the same tmp + rename write discipline and the same hit/miss
   accounting. *)

let find_raw t ~key =
  let result = read_file (path t key) in
  (match result with
   | Some _ -> t.hits <- t.hits + 1
   | None -> t.misses <- t.misses + 1);
  result

let store_raw t ~key data =
  let final = path t key in
  let tmp = tmp_name final in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    output_string oc data;
    close_out_noerr oc;
    (try Sys.rename tmp final with Sys_error _ -> ())

let hits t = t.hits
let misses t = t.misses
