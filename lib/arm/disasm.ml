type line = {
  l_addr : int;
  l_raw : int;
  l_size : int;
  l_insn : Insn.t option;
  l_label : string option;
}

(* Decode [size] bytes starting at [start] by linear sweep: undecodable
   words are emitted as data lines and skipped by one instruction width. *)
let range ?(mode = Cpu.Arm) ?(symbols = []) mem ~start ~size =
  (* index symbols once — a per-address List.find_opt makes the sweep
     O(n·m) on large libraries *)
  let index = Hashtbl.create (max 16 (List.length symbols)) in
  List.iter
    (fun (name, addr) ->
      if not (Hashtbl.mem index addr) then Hashtbl.add index addr name)
    symbols;
  let label_at addr = Hashtbl.find_opt index addr in
  let rec sweep acc addr =
    if addr >= start + size then List.rev acc
    else
      let line =
        match mode with
        | Cpu.Arm ->
          let raw = Memory.read_u32 mem addr in
          { l_addr = addr; l_raw = raw; l_size = 4; l_insn = Decode.decode raw;
            l_label = label_at addr }
        | Cpu.Thumb -> (
          let half = Memory.read_u16 mem addr in
          let next = Some (Memory.read_u16 mem (addr + 2)) in
          match Thumb.decode half next with
          | Some (insn, sz) ->
            let raw = if sz = 4 then (half lsl 16) lor Memory.read_u16 mem (addr + 2)
                      else half in
            { l_addr = addr; l_raw = raw; l_size = sz; l_insn = Some insn;
              l_label = label_at addr }
          | None ->
            { l_addr = addr; l_raw = half; l_size = 2; l_insn = None;
              l_label = label_at addr })
      in
      sweep (line :: acc) (addr + line.l_size)
  in
  sweep [] start

let program prog =
  let mem = Memory.create () in
  Asm.load prog mem;
  range ~mode:(Asm.mode prog) ~symbols:(Asm.symbols prog) mem
    ~start:(Asm.base prog) ~size:(Asm.size prog)

let pp_line ppf l =
  (match l.l_label with
   | Some name -> Format.fprintf ppf "@.%08x <%s>:@." l.l_addr name
   | None -> ());
  match l.l_insn with
  | Some insn ->
    Format.fprintf ppf "%08x:  %0*x    %a@." l.l_addr (l.l_size * 2) l.l_raw
      Insn.pp insn
  | None ->
    Format.fprintf ppf "%08x:  %0*x    .word (data)@." l.l_addr (l.l_size * 2)
      l.l_raw

let pp_listing ppf lines = List.iter (pp_line ppf) lines
