(* The unified cross-language IR: one def-use graph spanning both sides of
   the JNI boundary.  Java-side nodes come from the dex CFG's reaching
   definitions, native-side nodes are exported functions with the Table-V
   abstract facts the analyzer observed, and crossing nodes stitch the two
   together in both directions (Java->native calls with their AAPCS arg
   mapping, native->Java Call*Method upcalls).  The slicer walks this graph
   to localize where dynamic effort is needed. *)

type node =
  | Method of string * string  (* Dalvik method entry: class, name *)
  | Def of string * string * int  (* def site: class, name, pc (-1 = params) *)
  | Native of string * string  (* native function: lib, symbol *)
  | Crossing of string  (* JNI boundary crossing label *)
  | Source of string * string  (* source call: site, "Lcls;->m" *)
  | Sink of string * string  (* sink: flow sink name, flow site *)
  | Field of string * string  (* heap summary cell: class, field *)
  | Arrays  (* the one summary cell for all array contents *)
  | Exn  (* pending-exception summary cell *)

type edge =
  | Defuse  (* intra-method reaching definition *)
  | Call  (* Java call: arg defs feed the callee *)
  | Ret  (* callee return feeds the call-site result def *)
  | Jni_down of string  (* Java->native, labelled with the AAPCS mapping *)
  | Jni_up  (* native->Java Call*Method upcall *)
  | Src  (* a privacy source defines this value *)
  | Snk  (* this value reaches a sink *)
  | Heap  (* through a field / array / exception summary cell *)
  | Load  (* System.load* hands control to a library's JNI_OnLoad *)

type t = {
  mutable next_id : int;
  ids : (node, int) Hashtbl.t;
  nodes : (int, node) Hashtbl.t;
  mutable fwd : (int * edge) list array;
  mutable rev : (int * edge) list array;
  edge_seen : (int * int * edge, unit) Hashtbl.t;
  mutable n_edges : int;
}

let create () =
  { next_id = 0;
    ids = Hashtbl.create 256;
    nodes = Hashtbl.create 256;
    fwd = Array.make 64 [];
    rev = Array.make 64 [];
    edge_seen = Hashtbl.create 256;
    n_edges = 0 }

let grow g n =
  if n >= Array.length g.fwd then begin
    let cap = max (n + 1) (2 * Array.length g.fwd) in
    let f = Array.make cap [] and r = Array.make cap [] in
    Array.blit g.fwd 0 f 0 (Array.length g.fwd);
    Array.blit g.rev 0 r 0 (Array.length g.rev);
    g.fwd <- f;
    g.rev <- r
  end

(* id of the node, interning it on first sight *)
let add_node g node =
  match Hashtbl.find_opt g.ids node with
  | Some id -> id
  | None ->
    let id = g.next_id in
    g.next_id <- id + 1;
    grow g id;
    Hashtbl.replace g.ids node id;
    Hashtbl.replace g.nodes id node;
    id

let add_edge g src edge dst =
  let s = add_node g src and d = add_node g dst in
  if not (Hashtbl.mem g.edge_seen (s, d, edge)) then begin
    Hashtbl.replace g.edge_seen (s, d, edge) ();
    g.fwd.(s) <- (d, edge) :: g.fwd.(s);
    g.rev.(d) <- (s, edge) :: g.rev.(d);
    g.n_edges <- g.n_edges + 1
  end

let node_id g node = Hashtbl.find_opt g.ids node
let node_of g id = Hashtbl.find_opt g.nodes id
let succs g id = if id < Array.length g.fwd then g.fwd.(id) else []
let preds g id = if id < Array.length g.rev then g.rev.(id) else []
let node_count g = g.next_id
let edge_count g = g.n_edges

let fold_nodes g f acc =
  Hashtbl.fold (fun id node acc -> f id node acc) g.nodes acc

(* ids of every node satisfying [p] *)
let select g p =
  fold_nodes g (fun id node acc -> if p node then id :: acc else acc) []
