(* Each shard is a two-list amortized FIFO so the server's admission path
   gets O(1) pushes; the batch pool only ever deals once and pops, which
   the front list alone used to cover. *)
type 'a shard = {
  mutable front : 'a list;  (* next to run is the head *)
  mutable back : 'a list;  (* pushed items, newest first *)
  mutable len : int;
}

type 'a t = {
  shards : 'a shard array;
  capacity : int;
  mutable size : int;
  mutable stolen : int;
  mutable cursor : int;  (* round-robin scan start for {!pop_rr} *)
}

(* no bound unless the caller sets one: a batch's tasks are already in
   memory, so only the daemon's admission queue needs one *)
let create_empty ~shards ?(capacity = max_int) () =
  if shards < 1 then invalid_arg "Shard_queue.create: shards must be >= 1";
  { shards = Array.init shards (fun _ -> { front = []; back = []; len = 0 });
    capacity; size = 0; stolen = 0; cursor = 0 }

let create ~shards ?(capacity = max_int) items =
  let t = create_empty ~shards ~capacity () in
  let n = List.length items in
  if n > capacity then
    invalid_arg
      (Printf.sprintf "Shard_queue.create: %d items exceed the %d-task bound"
         n capacity);
  List.iteri
    (fun i item ->
      let s = t.shards.(i mod shards) in
      s.front <- item :: s.front;
      s.len <- s.len + 1)
    items;
  Array.iter (fun s -> s.front <- List.rev s.front) t.shards;
  t.size <- n;
  t

let remaining t = t.size
let steals t = t.stolen
let shards t = Array.length t.shards
let shard_depth t ~shard = t.shards.(shard mod Array.length t.shards).len

let push t ~shard item =
  if t.size >= t.capacity then false
  else begin
    let s = t.shards.(shard mod Array.length t.shards) in
    s.back <- item :: s.back;
    s.len <- s.len + 1;
    t.size <- t.size + 1;
    true
  end

(* front, refilled from back when dry; caller already checked len > 0 *)
let take_front s =
  (match s.front with
   | [] ->
     s.front <- List.rev s.back;
     s.back <- []
   | _ :: _ -> ());
  match s.front with
  | [] -> None
  | x :: rest ->
    s.front <- rest;
    s.len <- s.len - 1;
    Some x

let fullest_other t ~shard =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun i s ->
      if i <> shard && s.len > !best_len then begin
        best := i;
        best_len := s.len
      end)
    t.shards;
  if !best >= 0 then Some (!best, !best_len) else None

let split_at n l =
  let rec go acc k = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (x :: acc) (k - 1) rest
  in
  go [] n l

let pop t ~shard =
  if t.size = 0 then None
  else begin
    let shard = shard mod Array.length t.shards in
    let own = t.shards.(shard) in
    if own.len = 0 then begin
      (* steal the back half of the fullest foreign shard *)
      match fullest_other t ~shard with
      | None -> ()
      | Some (victim, len) ->
        let v = t.shards.(victim) in
        let keep = len / 2 in
        let kept, stolen = split_at keep (v.front @ List.rev v.back) in
        v.front <- kept;
        v.back <- [];
        v.len <- keep;
        own.front <- stolen;
        own.back <- [];
        own.len <- len - keep;
        t.stolen <- t.stolen + 1
    end;
    if own.len = 0 then None
    else begin
      t.size <- t.size - 1;
      take_front own
    end
  end

let pop_rr t =
  if t.size = 0 then None
  else begin
    let n = Array.length t.shards in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let idx = (t.cursor + !i) mod n in
      let s = t.shards.(idx) in
      if s.len > 0 then begin
        t.size <- t.size - 1;
        t.cursor <- idx + 1;  (* next scan starts past the served shard *)
        found := take_front s
      end;
      incr i
    done;
    !found
  end

let clear_shard t ~shard =
  let s = t.shards.(shard mod Array.length t.shards) in
  let dropped = s.front @ List.rev s.back in
  t.size <- t.size - s.len;
  s.front <- [];
  s.back <- [];
  s.len <- 0;
  dropped
