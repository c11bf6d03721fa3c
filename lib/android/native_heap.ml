let region_base = 0x2A000000
let region_size = 0x04000000 (* 64 MiB *)

type t = {
  live : (int, int) Hashtbl.t;  (* addr -> size *)
  mutable free_list : (int * int) list;  (* (addr, size), address-ordered *)
  mutable bump : int;
  mutable total : int;
}

let create () =
  { live = Hashtbl.create 256; free_list = []; bump = region_base; total = 0 }

let align8 n = (n + 7) land lnot 7

let malloc h n =
  let n = align8 (max n 8) in
  (* first fit on the free list *)
  let rec take acc = function
    | [] -> None
    | (addr, size) :: rest when size >= n ->
      let remainder =
        if size - n >= 16 then [ (addr + n, size - n) ] else []
      in
      Some (addr, List.rev_append acc (remainder @ rest))
    | entry :: rest -> take (entry :: acc) rest
  in
  let addr =
    match take [] h.free_list with
    | Some (addr, fl) ->
      h.free_list <- fl;
      addr
    | None ->
      if h.bump + n > region_base + region_size then raise Out_of_memory;
      let addr = h.bump in
      h.bump <- h.bump + n;
      addr
  in
  Hashtbl.replace h.live addr n;
  h.total <- h.total + 1;
  addr

let free h addr =
  match Hashtbl.find_opt h.live addr with
  | Some size ->
    Hashtbl.remove h.live addr;
    h.free_list <-
      List.sort compare ((addr, size) :: h.free_list)
  | None -> ()

let realloc h addr n =
  match Hashtbl.find_opt h.live addr with
  | Some old_size ->
    free h addr;
    let fresh = malloc h n in
    (fresh, old_size)
  | None -> (malloc h n, 0)

let block_size h addr = Hashtbl.find_opt h.live addr
let live_blocks h = Hashtbl.length h.live
