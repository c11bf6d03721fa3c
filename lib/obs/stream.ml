module Json = Ndroid_report.Json
module E = Event

type event = {
  ev_seq : int;
  ev_kind : E.kind;
  ev_name : string;
  ev_detail : string;
  ev_addr : int;
  ev_taint : int;
  ev_insn : string;
}

let of_record r =
  { ev_seq = r.E.e_seq;
    ev_kind = r.E.e_kind;
    ev_name = r.E.e_name;
    ev_detail = r.E.e_detail;
    ev_addr = r.E.e_addr;
    ev_taint = r.E.e_taint;
    ev_insn =
      (match r.E.e_kind with
       | E.K_insn -> Format.asprintf "%a" Ndroid_arm.Insn.pp r.E.e_insn
       | _ -> "") }

(* The one per-event JSON codec.  {!Export.event_json} delegates here, so a
   `--trace` JSONL file line and a streamed `--jsonl` line for the same
   event are byte-identical ({!Json.to_string} prints sorted keys, no
   whitespace). *)
let event_json ev =
  let fields =
    [ ("seq", Json.Int ev.ev_seq); ("kind", Json.Str (E.kind_name ev.ev_kind)) ]
  in
  let fields =
    if ev.ev_name <> "" then fields @ [ ("name", Json.Str ev.ev_name) ]
    else fields
  in
  let fields =
    match ev.ev_kind with
    | E.K_insn -> fields @ [ ("insn", Json.Str ev.ev_insn) ]
    | _ -> fields
  in
  let fields =
    if ev.ev_detail <> "" then fields @ [ ("detail", Json.Str ev.ev_detail) ]
    else fields
  in
  let fields =
    if ev.ev_addr <> 0 then
      fields @ [ ("addr", Json.Str (Printf.sprintf "0x%x" ev.ev_addr)) ]
    else fields
  in
  let fields =
    if ev.ev_taint <> 0 then
      fields @ [ ("taint", Json.Str (Printf.sprintf "0x%x" ev.ev_taint)) ]
    else fields
  in
  Json.Obj fields

let hex_member name j =
  match Json.member name j with
  | None -> Ok 0
  | Some v -> (
    match Json.str v with
    | None -> Error (Printf.sprintf "event %s: expected hex string" name)
    | Some s -> (
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "event %s: bad hex %S" name s)))

let str_member name j =
  match Json.member name j with
  | None -> ""
  | Some v -> Option.value (Json.str v) ~default:""

let event_of_json j =
  match Option.bind (Json.member "kind" j) Json.str with
  | None -> Error "event: missing kind"
  | Some kn -> (
    match E.kind_of_name kn with
    | None -> Error (Printf.sprintf "event: unknown kind %S" kn)
    | Some kind -> (
      match Option.bind (Json.member "seq" j) Json.int with
      | None -> Error "event: missing seq"
      | Some seq -> (
        match (hex_member "addr" j, hex_member "taint" j) with
        | Error e, _ | _, Error e -> Error e
        | Ok addr, Ok taint ->
          Ok
            { ev_seq = seq;
              ev_kind = kind;
              ev_name = str_member "name" j;
              ev_detail = str_member "detail" j;
              ev_addr = addr;
              ev_taint = taint;
              ev_insn = str_member "insn" j })))

let render ev =
  E.render_fields ~kind:ev.ev_kind ~name:ev.ev_name ~detail:ev.ev_detail
    ~addr:ev.ev_addr ~taint:ev.ev_taint

(* Terminal kinds carry the verdict-grade facts of the paper's Fig. 6-9
   story — a SourcePolicy firing, tainted data hitting a sink.  They are
   rare by construction and must never be deduplicated away. *)
let terminal = function E.K_source | E.K_sink -> true | _ -> false

(* ---- per-(method, kind) throttle windows ---- *)

type throttle = {
  th_window : int;  (* seq units; <= 0 disables *)
  th_last : (string * E.kind, int) Hashtbl.t;
  mutable th_dropped : int;
}

let throttle ~window =
  { th_window = window; th_last = Hashtbl.create 64; th_dropped = 0 }

let admit th ev =
  if th.th_window <= 0 || terminal ev.ev_kind then true
  else begin
    let key = (ev.ev_name, ev.ev_kind) in
    match Hashtbl.find_opt th.th_last key with
    | Some last
      (* [ev_seq < last] means the seq clock restarted (new task on a
         cleared ring): a stale window must not suppress the new task *)
      when ev.ev_seq >= last && ev.ev_seq - last < th.th_window ->
      th.th_dropped <- th.th_dropped + 1;
      false
    | _ ->
      Hashtbl.replace th.th_last key ev.ev_seq;
      true
  end

let dropped th = th.th_dropped

(* ---- cursor-based tap over a live ring ---- *)

type tap = {
  tp_throttle : throttle;
  mutable tp_cursor : int;  (* next absolute seq to read *)
  mutable tp_missed : int;  (* lost to wraparound before we drained *)
}

let tap ?(window = 0) () =
  { tp_throttle = throttle ~window; tp_cursor = 0; tp_missed = 0 }

let tap_dropped tp = dropped tp.tp_throttle
let tap_missed tp = tp.tp_missed

(* The ring maintains [next = total mod cap] (clear resets both), so the
   cell holding absolute seq [i] — if it still does — is [cells.(i mod cap)].
   Everything in [cursor, total) that wraparound has not yet reclaimed is
   collected in order; the reclaimed prefix counts as [missed]. *)
let drain tp ring =
  let total = Ring.total ring in
  if total < tp.tp_cursor then begin
    (* the ring was cleared since the last drain: the seq clock restarted *)
    tp.tp_cursor <- 0
  end;
  let first = max tp.tp_cursor (total - Ring.size ring) in
  tp.tp_missed <- tp.tp_missed + (first - tp.tp_cursor);
  let cap = Ring.capacity ring in
  let out = ref [] in
  for i = first to total - 1 do
    let ev = of_record ring.Ring.cells.(i mod cap) in
    if admit tp.tp_throttle ev then out := ev :: !out
  done;
  tp.tp_cursor <- total;
  List.rev !out
