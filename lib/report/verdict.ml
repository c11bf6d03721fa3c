type t =
  | Clean
  | Flagged of Flow.t list
  | Crashed of string
  | Timeout

(* Key-equal duplicates collapse to one flow, keeping the one with the
   richest provenance chain — merging static and dynamic verdicts must
   not drop the dynamic flow's hops. *)
let dedup_prefer_hops flows =
  let rec go = function
    | a :: b :: rest when Flow.equal a b ->
      let keep =
        if List.length a.Flow.f_hops >= List.length b.Flow.f_hops then a else b
      in
      go (keep :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go (List.stable_sort Flow.compare flows)

let normalize = function
  | Flagged [] -> Clean
  | Flagged flows -> Flagged (dedup_prefer_hops flows)
  | v -> v

let flagged v = match normalize v with Flagged _ -> true | _ -> false
let flows v = match normalize v with Flagged fs -> fs | _ -> []

let equal a b =
  match (normalize a, normalize b) with
  | Clean, Clean | Timeout, Timeout -> true
  | Crashed a, Crashed b -> String.equal a b
  | Flagged a, Flagged b -> List.equal Flow.equal a b
  | _ -> false

let pp ppf v =
  match normalize v with
  | Clean -> Format.fprintf ppf "clean"
  | Timeout -> Format.fprintf ppf "timeout"
  | Crashed why -> Format.fprintf ppf "crashed (%s)" why
  | Flagged flows ->
    Format.fprintf ppf "FLAGGED (%d flow%s)" (List.length flows)
      (if List.length flows = 1 then "" else "s");
    List.iter (fun f -> Format.fprintf ppf "@.  flow: %a" Flow.pp f) flows

let to_json v =
  match normalize v with
  | Clean -> Json.Obj [ ("verdict", Json.Str "clean") ]
  | Timeout -> Json.Obj [ ("verdict", Json.Str "timeout") ]
  | Crashed why ->
    Json.Obj [ ("verdict", Json.Str "crashed"); ("reason", Json.Str why) ]
  | Flagged flows ->
    Json.Obj
      [ ("verdict", Json.Str "flagged");
        ("flows", Json.List (List.map Flow.to_json flows)) ]

let ( let* ) = Result.bind

let of_json j =
  match Option.bind (Json.member "verdict" j) Json.str with
  | None -> Error "verdict object is missing a \"verdict\" tag"
  | Some "clean" -> Ok Clean
  | Some "timeout" -> Ok Timeout
  | Some "crashed" ->
    let why =
      Option.value ~default:""
        (Option.bind (Json.member "reason" j) Json.str)
    in
    Ok (Crashed why)
  | Some "flagged" -> (
    match Option.bind (Json.member "flows" j) Json.list with
    | None -> Error "flagged verdict is missing its \"flows\" array"
    | Some items ->
      let* flows =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* f = Flow.of_json item in
            Ok (f :: acc))
          (Ok []) items
      in
      Ok (normalize (Flagged (List.rev flows))))
  | Some other -> Error (Printf.sprintf "unknown verdict tag %S" other)

(* ---- per-app reports ---- *)

type report = {
  r_app : string;
  r_analysis : string;
  r_verdict : t;
  r_meta : (string * Json.t) list;
}

let sorted_meta m = List.sort (fun (a, _) (b, _) -> String.compare a b) m

let report_equal a b =
  String.equal a.r_app b.r_app
  && String.equal a.r_analysis b.r_analysis
  && equal a.r_verdict b.r_verdict
  && sorted_meta a.r_meta = sorted_meta b.r_meta

let pp_report ppf r =
  Format.fprintf ppf "%s [%s]: %a@." r.r_app r.r_analysis pp r.r_verdict;
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "  %-18s %s@." (k ^ ":") (Json.to_string v))
    (sorted_meta r.r_meta)

let report_to_json r =
  Json.Obj
    [ ("app", Json.Str r.r_app);
      ("analysis", Json.Str r.r_analysis);
      ("result", to_json r.r_verdict);
      ("meta", Json.Obj r.r_meta) ]

let report_of_json j =
  let field name =
    match Option.bind (Json.member name j) Json.str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "report is missing field %S" name)
  in
  let* app = field "app" in
  let* analysis = field "analysis" in
  let* verdict =
    match Json.member "result" j with
    | Some v -> of_json v
    | None -> Error "report is missing its \"result\" object"
  in
  let meta =
    match Json.member "meta" j with Some (Json.Obj fields) -> fields | _ -> []
  in
  Ok { r_app = app; r_analysis = analysis; r_verdict = verdict; r_meta = meta }

let reports_to_json rs = Json.List (List.map report_to_json rs)
