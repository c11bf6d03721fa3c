module Asm = Ndroid_arm.Asm
module Cpu = Ndroid_arm.Cpu
module Insn = Ndroid_arm.Insn
module Disasm = Ndroid_arm.Disasm

type t = {
  n_name : string;
  n_mode : Cpu.mode;
  n_base : int;
  n_size : int;
  n_code : Bytes.t;
  n_insns : (int, Insn.t * int) Hashtbl.t;
  n_symbols : (string * int) list;
  n_sym_at : (int, string) Hashtbl.t;
}

let clear_thumb_bit a = a land lnot 1

let of_program ~name prog =
  let insns = Hashtbl.create 256 in
  List.iter
    (fun (l : Disasm.line) ->
      match l.Disasm.l_insn with
      | Some insn -> Hashtbl.replace insns l.Disasm.l_addr (insn, l.Disasm.l_size)
      | None -> ())
    (Disasm.program prog);
  let sym_at = Hashtbl.create 16 in
  List.iter
    (fun (n, a) ->
      let a = clear_thumb_bit a in
      if not (Hashtbl.mem sym_at a) then Hashtbl.add sym_at a n)
    (Asm.symbols prog);
  { n_name = name; n_mode = Asm.mode prog; n_base = Asm.base prog;
    n_size = Asm.size prog; n_code = Asm.code prog; n_insns = insns;
    n_symbols = Asm.symbols prog; n_sym_at = sym_at }

let name t = t.n_name
let insn_count t = Hashtbl.length t.n_insns
let insn_at t addr = Hashtbl.find_opt t.n_insns (clear_thumb_bit addr)

let contains t addr =
  let a = clear_thumb_bit addr in
  a >= t.n_base && a < t.n_base + t.n_size

let symbols t = t.n_symbols

let symbol_addr t name =
  List.find_map (fun (n, a) -> if n = name then Some a else None) t.n_symbols

let enclosing_symbol t addr =
  let a = clear_thumb_bit addr in
  List.fold_left
    (fun best (n, sa) ->
      let sa = clear_thumb_bit sa in
      if sa <= a then
        match best with
        | Some (_, ba) when ba >= sa -> best
        | _ -> Some (n, sa)
      else best)
    None t.n_symbols
  |> Option.map fst

(* data reads: no thumb-bit games — string bytes live at odd addresses too *)
let byte_at t addr =
  if addr >= t.n_base && addr < t.n_base + t.n_size then
    Some (Char.code (Bytes.get t.n_code (addr - t.n_base)))
  else None

let cstring_at t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    match byte_at t a with
    | Some 0 -> Some (Buffer.contents buf)
    | Some c when c >= 32 && c < 127 && Buffer.length buf < 256 ->
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    | _ -> None
  in
  go addr

let branch_target t ~addr ~size:_ ~offset =
  match t.n_mode with
  | Cpu.Arm -> addr + 8 + (offset * 4)
  | Cpu.Thumb -> addr + 4 + (offset * 2)

(* ---- block recovery: leaders are symbols and branch targets ---- *)

let is_block_end = function
  | Insn.B _ -> true
  | Insn.Bx { link = false; _ } -> true
  | Insn.Block { load = true; regs; _ } -> regs land (1 lsl 15) <> 0
  | _ -> false

let basic_blocks t =
  let leaders = Hashtbl.create 32 in
  Hashtbl.iter (fun a _ -> Hashtbl.replace leaders a ()) t.n_sym_at;
  Hashtbl.iter
    (fun addr (insn, size) ->
      match insn with
      | Insn.B { offset; _ } ->
        let target = branch_target t ~addr ~size ~offset in
        if contains t target then Hashtbl.replace leaders target ();
        if is_block_end insn && Hashtbl.mem t.n_insns (addr + size) then
          Hashtbl.replace leaders (addr + size) ()
      | Insn.Bx { link = false; _ } | Insn.Block { load = true; _ } ->
        if is_block_end insn && Hashtbl.mem t.n_insns (addr + size) then
          Hashtbl.replace leaders (addr + size) ()
      | _ -> ())
    t.n_insns;
  let sorted =
    List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) leaders [])
  in
  let rec block_extent addr =
    match Hashtbl.find_opt t.n_insns addr with
    | None -> (addr, [])
    | Some (insn, size) ->
      let next = addr + size in
      let succ_of_branch () =
        match insn with
        | Insn.B { cond; link; offset } ->
          let tgt = branch_target t ~addr ~size ~offset in
          let fall =
            if cond <> Insn.AL || link then
              if Hashtbl.mem t.n_insns next then [ next ] else []
            else []
          in
          (if contains t tgt then [ tgt ] else []) @ fall
        | Insn.Bx { link = true; _ } ->
          if Hashtbl.mem t.n_insns next then [ next ] else []
        | _ -> []
      in
      if is_block_end insn then (next, succ_of_branch ())
      else if Hashtbl.mem leaders next then
        (next, if Hashtbl.mem t.n_insns next then [ next ] else [])
      else block_extent next
  in
  List.filter_map
    (fun start ->
      if Hashtbl.mem t.n_insns start then
        let stop, succs = block_extent start in
        Some (start, stop, List.sort_uniq compare succs)
      else None)
    sorted
