(* Backward slicing over the {!Xir} graph.

   The slice is the intersection of forward reachability from every source
   node and backward reachability from every sink node — the nodes on some
   feasible source->sink path.  Its projection onto Dalvik methods, native
   exported functions and JNI crossings is the focus set handed to the
   dynamic tracker; a per-sink backward search inside the slice also yields
   the hop chain serialized as a static flow's provenance. *)

module Focus = Ndroid_report.Focus
module Flow = Ndroid_report.Flow

type t = {
  sl_xir : Xir.t;
  sl_fwd : (int, unit) Hashtbl.t;  (* reachable from any source *)
  sl_bwd : (int, unit) Hashtbl.t;  (* reaches any sink *)
}

let bfs g start ~next =
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun id ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        Queue.add id q
      end)
    start;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter
      (fun (d, _) ->
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.replace seen d ();
          Queue.add d q
        end)
      (next g id)
  done;
  seen

let compute g =
  let sources = Xir.select g (function Xir.Source _ -> true | _ -> false) in
  let sinks = Xir.select g (function Xir.Sink _ -> true | _ -> false) in
  { sl_xir = g;
    sl_fwd = bfs g sources ~next:Xir.succs;
    sl_bwd = bfs g sinks ~next:Xir.preds }

let in_slice t id = Hashtbl.mem t.sl_fwd id && Hashtbl.mem t.sl_bwd id

(* ---- focus projection ---- *)

let focus_of_nodes nodes =
  let methods = ref [] and natives = ref [] and crossings = ref [] in
  List.iter
    (fun node ->
      match node with
      | Xir.Method (c, m) | Xir.Def (c, m, _) ->
        methods := (c ^ "->" ^ m) :: !methods
      | Xir.Native (_, sym) -> natives := sym :: !natives
      | Xir.Crossing label -> crossings := label :: !crossings
      | Xir.Source _ | Xir.Sink _ | Xir.Field _ | Xir.Arrays | Xir.Exn -> ())
    nodes;
  Focus.make ~methods:(List.rev !methods) ~natives:(List.rev !natives)
    ~crossings:(List.rev !crossings)

let focus t =
  Xir.fold_nodes t.sl_xir
    (fun id node acc -> if in_slice t id then node :: acc else acc)
    []
  |> List.sort compare |> focus_of_nodes

let full g =
  Xir.fold_nodes g (fun _ node acc -> node :: acc) []
  |> List.sort compare |> focus_of_nodes

(* ---- provenance hops ---- *)

let hop kind site = { Flow.h_kind = kind; h_site = site }

let hop_of_node = function
  | Xir.Source (site, name) -> Some (hop "source" (name ^ " @ " ^ site))
  | Xir.Method (c, m) -> Some (hop "dalvik" (c ^ "->" ^ m))
  | Xir.Def (c, m, pc) ->
    Some
      (hop "dalvik"
         (if pc < 0 then c ^ "->" ^ m
          else Printf.sprintf "%s->%s@%d" c m pc))
  | Xir.Crossing label -> Some (hop "jni" label)
  | Xir.Native (lib, sym) -> Some (hop "native" (sym ^ " (" ^ lib ^ ")"))
  | Xir.Field (c, f) -> Some (hop "dalvik" ("field " ^ c ^ "." ^ f))
  | Xir.Arrays -> Some (hop "dalvik" "array cell")
  | Xir.Exn -> Some (hop "dalvik" "exception cell")
  | Xir.Sink (name, site) -> Some (hop "sink" (name ^ " -> " ^ site))

(* collapse runs of hops inside the same method so the chain reads
   source -> method -> crossing -> native -> sink, not one hop per pc *)
let method_key = function
  | Xir.Method (c, m) | Xir.Def (c, m, _) -> Some (c ^ "->" ^ m)
  | _ -> None

let hops_of_path nodes =
  let rec go prev_key acc = function
    | [] -> List.rev acc
    | node :: rest -> (
      let key = method_key node in
      match (key, prev_key) with
      | Some k, Some k' when k = k' -> go prev_key acc rest
      | _ -> (
        match hop_of_node node with
        | Some h -> go key (h :: acc) rest
        | None -> go key acc rest))
  in
  go None [] nodes

(* shortest source->sink path through the slice, found backward from the
   sink with parent pointers *)
let path_to_sink t sink_id =
  if not (Hashtbl.mem t.sl_fwd sink_id) then None
  else begin
    let parent = Hashtbl.create 64 in
    let q = Queue.create () in
    Hashtbl.replace parent sink_id sink_id;
    Queue.add sink_id q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let id = Queue.pop q in
      (match Xir.node_of t.sl_xir id with
       | Some (Xir.Source _) -> found := Some id
       | _ ->
         List.iter
           (fun (p, _) ->
             if Hashtbl.mem t.sl_fwd p && not (Hashtbl.mem parent p) then begin
               Hashtbl.replace parent p id;
               Queue.add p q
             end)
           (Xir.preds t.sl_xir id))
    done;
    match !found with
    | None -> None
    | Some src ->
      let rec walk id acc =
        let nxt = Hashtbl.find parent id in
        let acc =
          match Xir.node_of t.sl_xir id with
          | Some n -> n :: acc
          | None -> acc
        in
        if nxt = id then List.rev acc else walk nxt acc
      in
      (* walk follows parent pointers sink-ward and reverses, so the
         result is already in source->sink order *)
      Some (walk src [])
  end

let sink_id t (f : Flow.t) =
  Xir.node_id t.sl_xir (Xir.Sink (f.Flow.f_sink, f.Flow.f_site))

(* shortest source->sink hop chain for the flow's sink node, if the graph
   contains one *)
let hops_for t (f : Flow.t) =
  match sink_id t f with
  | None -> None
  | Some id -> Option.map hops_of_path (path_to_sink t id)

let annotate t flows =
  let covered = ref true in
  let flows =
    List.map
      (fun (f : Flow.t) ->
        if f.Flow.f_hops <> [] then f
        else
          match hops_for t f with
          | Some hops -> { f with Flow.f_hops = hops }
          | None ->
            covered := false;
            f)
      flows
  in
  (flows, !covered)
