module Taint = Ndroid_taint.Taint

type context = Java_ctx | Native_ctx

type hop = {
  h_kind : string;
  h_site : string;
}

type t = {
  f_taint : Taint.t;
  f_sink : string;
  f_context : context;
  f_site : string;
  f_hops : hop list;
}

let context_name = function Java_ctx -> "java" | Native_ctx -> "native"

let context_of_name = function
  | "java" -> Some Java_ctx
  | "native" -> Some Native_ctx
  | _ -> None

let pp_hop ppf h = Format.fprintf ppf "%s:%s" h.h_kind h.h_site

let pp ppf f =
  Format.fprintf ppf "%a -> %s [%s context, at %s]" Taint.pp f.f_taint f.f_sink
    (context_name f.f_context) f.f_site;
  match f.f_hops with
  | [] -> ()
  | hops ->
    Format.fprintf ppf " via %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
         pp_hop)
      hops

(* Provenance hops are evidence, not identity: two reports of the same
   leak (say one static, one dynamic) must still deduplicate. *)
let key f =
  (f.f_sink, context_name f.f_context, f.f_site, Taint.to_bits f.f_taint)

let compare a b = Stdlib.compare (key a) (key b)
let equal a b = compare a b = 0

let hop_to_json h =
  Json.Obj [ ("kind", Json.Str h.h_kind); ("site", Json.Str h.h_site) ]

let hop_of_json j =
  match (Json.member "kind" j, Json.member "site" j) with
  | Some k, Some s -> (
    match (Json.str k, Json.str s) with
    | Some h_kind, Some h_site -> Ok { h_kind; h_site }
    | _ -> Error "hop fields are not strings")
  | _ -> Error "hop is missing kind/site"

let to_json f =
  let base =
    [ ("taint", Json.Str (Printf.sprintf "0x%x" (Taint.to_bits f.f_taint)));
      ("sink", Json.Str f.f_sink);
      ("context", Json.Str (context_name f.f_context));
      ("site", Json.Str f.f_site) ]
  in
  let base =
    match f.f_hops with
    | [] -> base
    | hops -> base @ [ ("provenance", Json.List (List.map hop_to_json hops)) ]
  in
  Json.Obj base

let of_json j =
  let field name =
    match Json.member name j with
    | Some v -> (
      match Json.str v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "flow field %S is not a string" name))
    | None -> Error (Printf.sprintf "flow is missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* taint_s = field "taint" in
  let* sink = field "sink" in
  let* context_s = field "context" in
  let* site = field "site" in
  let* bits =
    match int_of_string_opt taint_s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "bad taint bits %S" taint_s)
  in
  let* context =
    match context_of_name context_s with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "bad flow context %S" context_s)
  in
  (* pre-provenance reports simply lack the field *)
  let* hops =
    match Json.member "provenance" j with
    | None -> Ok []
    | Some (Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* h = hop_of_json item in
          Ok (h :: acc))
        (Ok []) items
      |> Result.map List.rev
    | Some _ -> Error "flow provenance is not a list"
  in
  Ok { f_taint = Taint.of_bits bits; f_sink = sink; f_context = context;
       f_site = site; f_hops = hops }
