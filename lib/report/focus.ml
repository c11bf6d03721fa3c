(* The static slice's hand-off to the dynamic tracker: which Dalvik
   methods, native exported functions, and JNI crossings lie on a feasible
   source->sink path.  Kept in ndroid.report because both the static
   analyzer (producer) and the core tracker (consumer) depend on it. *)

type t = {
  methods : string list;  (* qualified "Lcls;->name" Dalvik methods *)
  natives : string list;  (* exported native function symbols *)
  crossings : string list;  (* JNI crossing labels, e.g. "Lcls;->m => sym" *)
}

let empty = { methods = []; natives = []; crossings = [] }

let is_empty f = f.methods = [] && f.natives = [] && f.crossings = []

let dedup xs =
  let tbl = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem tbl x then false
      else begin
        Hashtbl.add tbl x ();
        true
      end)
    xs

let make ~methods ~natives ~crossings =
  { methods = dedup methods;
    natives = dedup natives;
    crossings = dedup crossings }

let strings_to_json xs = Json.List (List.map (fun s -> Json.Str s) xs)

let strings_of_json = function
  | Json.List items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Str s :: rest -> go (s :: acc) rest
      | _ -> Error "focus: expected string array"
    in
    go [] items
  | _ -> Error "focus: expected array"

let to_json f =
  Json.Obj
    [ ("methods", strings_to_json f.methods);
      ("natives", strings_to_json f.natives);
      ("crossings", strings_to_json f.crossings) ]

let of_json = function
  | Json.Obj fields ->
    let strs key =
      match List.assoc_opt key fields with
      | None -> Ok []
      | Some j -> strings_of_json j
    in
    Result.bind (strs "methods") (fun methods ->
        Result.bind (strs "natives") (fun natives ->
            Result.bind (strs "crossings") (fun crossings ->
                Ok { methods; natives; crossings })))
  | _ -> Error "focus: expected object"
