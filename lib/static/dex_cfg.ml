module B = Ndroid_dalvik.Bytecode
module Classes = Ndroid_dalvik.Classes
module IntSet = Set.Make (Int)

(* the interpreter's result register (filled by Invoke, read by
   Move_result) is modeled as pseudo-register -1 *)
let result_reg = -1

type t = {
  c_code : B.t array;
  c_succs : int list array;
  c_handler_succs : int list array;
  c_reach : IntSet.t array array Lazy.t;
      (* pc -> reg-slot -> def sites; the last slot is the result
         pseudo-register.  Built on the first [reaching_defs]. *)
}

let succs t pc = if pc >= 0 && pc < Array.length t.c_succs then t.c_succs.(pc) else []
let handler_succs t pc =
  if pc >= 0 && pc < Array.length t.c_handler_succs then t.c_handler_succs.(pc)
  else []

(* registers written by one instruction ([-1] stands for the
   interpreter's result register filled by [Invoke]) *)
let defs = function
  | B.Nop | B.Return_void | B.Return _ | B.Goto _ | B.If _ | B.Ifz _
  | B.Throw _ | B.Packed_switch _ | B.Sparse_switch _ | B.Iput _ | B.Sput _
  | B.Aput _ -> []
  | B.Const (r, _) | B.Const_string (r, _) | B.Move (r, _)
  | B.Move_result r | B.Move_exception r | B.Unop (_, r, _)
  | B.New_instance (r, _) | B.New_array (r, _, _) | B.Array_length (r, _)
  | B.Aget (r, _, _) | B.Iget (r, _, _) | B.Sget (r, _)
  | B.Check_cast (r, _) | B.Instance_of (r, _, _)
  | B.Binop (_, r, _, _) | B.Binop_wide (_, r, _, _)
  | B.Binop_float (_, r, _, _) | B.Binop_double (_, r, _, _)
  | B.Binop_lit (_, r, _, _) | B.Cmp_long (r, _, _) -> [ r ]
  | B.Invoke _ -> [ result_reg ]

let uses = function
  | B.Nop | B.Const _ | B.Const_string _ | B.Return_void | B.Goto _
  | B.New_instance _ | B.Sget _ | B.Move_exception _ -> []
  | B.Move_result _ -> [ result_reg ]
  | B.Move (_, s) | B.Return s | B.Unop (_, _, s) | B.Array_length (_, s)
  | B.Ifz (_, s, _) | B.Throw s | B.Check_cast (s, _)
  | B.Instance_of (_, s, _) | B.New_array (_, s, _) | B.Binop_lit (_, _, s, _)
  | B.Iget (_, s, _) | B.Sput (s, _) -> [ s ]
  | B.Binop (_, _, a, b) | B.Binop_wide (_, _, a, b)
  | B.Binop_float (_, _, a, b) | B.Binop_double (_, _, a, b)
  | B.Cmp_long (_, a, b) | B.If (_, a, b, _) | B.Iput (a, b, _) -> [ a; b ]
  | B.Aget (_, arr, i) -> [ arr; i ]
  | B.Aput (v, arr, i) -> [ v; arr; i ]
  | B.Packed_switch (s, _, _) | B.Sparse_switch (s, _) -> [ s ]
  | B.Invoke (_, _, regs) -> regs

(* the result pseudo-register is -1, below every real one *)
let max_reg code =
  Array.fold_left
    (fun acc insn -> List.fold_left max (List.fold_left max acc (defs insn)) (uses insn))
    (-1) code

let insn_succs code pc =
  let n = Array.length code in
  let valid t = if t >= 0 && t < n then [ t ] else [] in
  let fall = valid (pc + 1) in
  let dedup l = List.sort_uniq compare l in
  match code.(pc) with
  | B.Return_void | B.Return _ | B.Throw _ -> []
  | B.Goto t -> valid t
  | B.If (_, _, _, t) | B.Ifz (_, _, t) -> dedup (valid t @ fall)
  | B.Packed_switch (_, _, targets) ->
    dedup (List.concat_map valid (Array.to_list targets) @ fall)
  | B.Sparse_switch (_, pairs) ->
    dedup (List.concat_map (fun (_, t) -> valid t) (Array.to_list pairs) @ fall)
  | _ -> fall

let slot_of_reg nregs r = if r = result_reg then nregs - 1 else r

(* instruction-level worklist over normal and handler edges *)
let reach_table code succs handler_succs =
  let n = Array.length code in
  let nregs = max_reg code + 2 (* + the result pseudo-register *) in
  let reach = Array.init (max n 1) (fun _ -> Array.make nregs IntSet.empty) in
  if n > 0 then
    for s = 0 to nregs - 1 do
      reach.(0).(s) <- IntSet.singleton (-1)
    done;
  let preds = Array.make n [] in
  Array.iteri
    (fun pc ss ->
      List.iter (fun t -> preds.(t) <- pc :: preds.(t)) (ss @ handler_succs.(pc)))
    succs;
  let out_of pc =
    let o = Array.copy reach.(pc) in
    List.iter
      (fun r -> o.(slot_of_reg nregs r) <- IntSet.singleton pc)
      (defs code.(pc));
    o
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = 0 to n - 1 do
      let in_ = reach.(pc) in
      List.iter
        (fun p ->
          let o = out_of p in
          for s = 0 to nregs - 1 do
            let u = IntSet.union in_.(s) o.(s) in
            if not (IntSet.equal u in_.(s)) then begin
              in_.(s) <- u;
              changed := true
            end
          done)
        preds.(pc)
    done
  done;
  reach

let of_code ?(handlers = []) code =
  let n = Array.length code in
  let succs = Array.init n (insn_succs code) in
  let handler_succs =
    Array.init n (fun pc ->
        List.filter_map
          (fun (h : Classes.handler) ->
            if pc >= h.try_start && pc < h.try_end && h.handler_pc >= 0
               && h.handler_pc < n
            then Some h.handler_pc
            else None)
          handlers)
  in
  { c_code = code; c_succs = succs; c_handler_succs = handler_succs;
    c_reach = lazy (reach_table code succs handler_succs) }

let blocks cfg =
  let n = Array.length cfg.c_code in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun pc ss ->
      let branches = match ss with [ t ] when t = pc + 1 -> false | _ -> true in
      if branches then begin
        List.iter (fun t -> leader.(t) <- true) ss;
        if pc + 1 < n then leader.(pc + 1) <- true
      end;
      List.iter (fun t -> leader.(t) <- true) cfg.c_handler_succs.(pc))
    cfg.c_succs;
  let blocks = ref [] in
  let start = ref 0 in
  for pc = 1 to n - 1 do
    if leader.(pc) then begin
      blocks := (!start, pc) :: !blocks;
      start := pc
    end
  done;
  if n > 0 then blocks := (!start, n) :: !blocks;
  List.rev !blocks

let reaching_defs t pc reg =
  if pc < 0 || pc >= Array.length t.c_code then []
  else
    let at = (Lazy.force t.c_reach).(pc) in
    IntSet.elements at.(slot_of_reg (Array.length at) reg)
