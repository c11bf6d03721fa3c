type action = Enter of int | Leave of int

type t = {
  chain : (int -> bool) array;
  in_native : int -> bool;
  mutable level : int;
  mutable returns : int list;  (* expected return addresses, innermost first *)
  mutable checks : int;
}

let exact addr = fun x -> x = addr

let create ~chain ~in_native =
  { chain = Array.of_list chain; in_native; level = 0; returns = []; checks = 0 }

let level t = t.level

let checks t = t.checks

let observe t ~from_ ~to_ =
  t.checks <- t.checks + 1;
  let n = Array.length t.chain in
  if t.level < n && t.chain.(t.level) to_
     && (t.level > 0 || t.in_native from_) then begin
    (* Condition T(level+1): the next chain function entered from the
       expected place.  Remember where it must return to. *)
    t.returns <- (from_ + 4) :: t.returns;
    t.level <- t.level + 1;
    Some (Enter (t.level - 1))
  end
  else
    match t.returns with
    | expected :: rest when t.level > 0 && to_ = expected ->
      t.returns <- rest;
      t.level <- t.level - 1;
      Some (Leave t.level)
    | _ -> None
