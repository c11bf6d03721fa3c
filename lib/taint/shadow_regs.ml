type t = Taint.t array

let create n = Array.make n Taint.clear

let oob i : 'a =
  invalid_arg (Printf.sprintf "Shadow_regs: register %d out of range" i)

(* One explicit range check, then unchecked access: the accessors run several
   times per traced instruction. *)
let get s i =
  if i >= 0 && i < Array.length s then Array.unsafe_get s i else oob i

let set s i tag =
  if i >= 0 && i < Array.length s then Array.unsafe_set s i tag else oob i

let add s i tag =
  if i >= 0 && i < Array.length s then
    Array.unsafe_set s i (Taint.union (Array.unsafe_get s i) tag)
  else oob i

let clear_all s = Array.fill s 0 (Array.length s) Taint.clear
let any_tainted s = Array.exists Taint.is_tainted s
let snapshot s = Array.copy s

let restore s saved =
  if Array.length saved <> Array.length s then
    invalid_arg "Shadow_regs.restore: size mismatch";
  Array.blit saved 0 s 0 (Array.length s)
