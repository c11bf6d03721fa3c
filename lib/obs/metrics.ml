module Json = Ndroid_report.Json

type counter = { mutable c_value : int }

let n_buckets = 48

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array;  (* log2 buckets over the value in integer units *)
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0.0; h_buckets = Array.make n_buckets 0 } in
    Hashtbl.replace t.histograms name h;
    h

(* bucket k holds values v with 2^(k-1) <= v < 2^k (bucket 0: v <= 0) *)
let bucket_of_int v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (bits v 0)
  end

let observe_int h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. float_of_int v;
  let b = bucket_of_int v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

(* float observations (latencies in seconds) are bucketed in microseconds *)
let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let b = bucket_of_int (int_of_float (v *. 1e6)) in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_count h = h.h_count

let hist_to_json h =
  (* drop the all-zero tail so small registries stay readable *)
  let last = ref 0 in
  Array.iteri (fun i n -> if n > 0 then last := i) h.h_buckets;
  let buckets =
    Array.to_list (Array.sub h.h_buckets 0 (!last + 1))
    |> List.map (fun n -> Json.Int n)
  in
  Json.Obj
    [ ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("buckets", Json.List buckets) ]

let to_json t =
  let cs =
    Hashtbl.fold (fun k c acc -> (k, Json.Int c.c_value) :: acc) t.counters []
  in
  let hs =
    Hashtbl.fold (fun k h acc -> (k, hist_to_json h) :: acc) t.histograms []
  in
  Json.Obj [ ("counters", Json.Obj cs); ("histograms", Json.Obj hs) ]

(* Direct registry-into-registry merge: the domain engine hands whole
   registries back by reference, so aggregation pays no serialize/parse
   tax the way the forked engine's JSON frames do. *)
let merge t src =
  Hashtbl.iter (fun k c -> add (counter t k) c.c_value) src.counters;
  Hashtbl.iter
    (fun k h ->
      let dst = histogram t k in
      dst.h_count <- dst.h_count + h.h_count;
      dst.h_sum <- dst.h_sum +. h.h_sum;
      Array.iteri
        (fun i n -> dst.h_buckets.(i) <- dst.h_buckets.(i) + n)
        h.h_buckets)
    src.histograms

(* Absorb a snapshot previously produced by [to_json] — the worker side of
   the pipeline serializes its registry into each Wire result frame and the
   parent merges it here. *)
let merge_json t j =
  (match Json.member "counters" j with
   | Some (Json.Obj fields) ->
     List.iter
       (fun (k, v) ->
         match v with Json.Int n -> add (counter t k) n | _ -> ())
       fields
   | _ -> ());
  match Json.member "histograms" j with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (k, v) ->
        let h = histogram t k in
        (match Json.member "count" v with
         | Some (Json.Int n) -> h.h_count <- h.h_count + n
         | _ -> ());
        (match Json.member "sum" v with
         | Some (Json.Float f) -> h.h_sum <- h.h_sum +. f
         | Some (Json.Int n) -> h.h_sum <- h.h_sum +. float_of_int n
         | _ -> ());
        match Json.member "buckets" v with
        | Some (Json.List items) ->
          List.iteri
            (fun i item ->
              match item with
              | Json.Int n when i < n_buckets ->
                h.h_buckets.(i) <- h.h_buckets.(i) + n
              | _ -> ())
            items
        | _ -> ())
      fields
  | _ -> ()
