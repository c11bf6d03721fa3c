module Taint = Ndroid_taint.Taint

type context = Java_context | Native_context
type policy = Observe | Block

type leak = {
  sink : string;
  context : context;
  taint : Taint.t;
  data : string;
  detail : string;
  blocked : bool;
}

type t = { mutable log : leak list; mutable policy : policy }

let create () = { log = []; policy = Observe }

let truncate s = if String.length s > 120 then String.sub s 0 117 ^ "..." else s

let record t ~sink ~context ~taint ~data ~detail ~blocked =
  t.log <-
    { sink; context; taint; data = truncate data; detail; blocked } :: t.log

let inspect t ~sink ~context ~taint ~data ~detail =
  if Taint.is_tainted taint then
    record t ~sink ~context ~taint ~data ~detail ~blocked:false

let decide t ~sink ~context ~taint ~data ~detail =
  if Taint.is_clear taint then `Allow
  else begin
    let blocked = t.policy = Block in
    record t ~sink ~context ~taint ~data ~detail ~blocked;
    if blocked then `Block else `Allow
  end

let set_policy t p = t.policy <- p
let policy t = t.policy
let blocked_count t = List.length (List.filter (fun l -> l.blocked) t.log)

let leaks t = List.rev t.log
let leak_count t = List.length t.log

let pp_leak ppf l =
  Format.fprintf ppf "[%s%s] sink=%s taint=%a dest=%s data=%S"
    (match l.context with Java_context -> "java" | Native_context -> "native")
    (if l.blocked then ", BLOCKED" else "")
    l.sink Taint.pp_verbose l.taint l.detail l.data
