type item =
  | I of Bytecode.t
  | L of string
  | If_l of Bytecode.cmp * Bytecode.reg * Bytecode.reg * string
  | Ifz_l of Bytecode.cmp * Bytecode.reg * string
  | Goto_l of string
  | Packed_switch_l of Bytecode.reg * int32 * string list
  | Sparse_switch_l of Bytecode.reg * (int32 * string) list

exception Build_error of string

let err fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

let label_table items =
  let table = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun item ->
      match item with
      | L name ->
        if Hashtbl.mem table name then err "duplicate label %s" name;
        Hashtbl.replace table name !idx
      | I _ | If_l _ | Ifz_l _ | Goto_l _ | Packed_switch_l _ | Sparse_switch_l _
        -> incr idx)
    items;
  table

let resolve table name =
  match Hashtbl.find_opt table name with
  | Some i -> i
  | None -> err "undefined label %s" name

(* Resolve labels to instruction indexes.  @raise Build_error on undefined
   or duplicate labels. *)
let code items =
  let table = label_table items in
  let insns =
    List.filter_map
      (fun item ->
        match item with
        | L _ -> None
        | I insn -> Some insn
        | If_l (c, a, b, l) -> Some (Bytecode.If (c, a, b, resolve table l))
        | Ifz_l (c, a, l) -> Some (Bytecode.Ifz (c, a, resolve table l))
        | Goto_l l -> Some (Bytecode.Goto (resolve table l))
        | Packed_switch_l (r, first, labels) ->
          Some
            (Bytecode.Packed_switch
               (r, first, Array.of_list (List.map (resolve table) labels)))
        | Sparse_switch_l (r, entries) ->
          Some
            (Bytecode.Sparse_switch
               (r, Array.of_list
                     (List.map (fun (k, l) -> (k, resolve table l)) entries))))
      items
  in
  Array.of_list insns

let method_ ~cls ~name ~shorty ?(static = true) ?registers
    ?(handlers = []) items =
  let table = label_table items in
  let resolved_handlers =
    List.map
      (fun (s, e, h) ->
        { Classes.try_start = resolve table s;
          try_end = resolve table e;
          handler_pc = resolve table h })
      handlers
  in
  let body = Classes.Bytecode (code items, resolved_handlers) in
  let ins = List.length (Classes.shorty_params shorty) + if static then 0 else 1 in
  let registers = match registers with Some r -> r | None -> ins + 8 in
  if registers < ins then err "method %s: %d registers < %d inputs" name registers ins;
  { Classes.m_class = cls; m_name = name; m_shorty = shorty; m_static = static;
    m_registers = registers; m_body = body }

let native_method ~cls ~name ~shorty symbol =
  { Classes.m_class = cls; m_name = name; m_shorty = shorty; m_static = true;
    m_registers = 0; m_body = Classes.Native symbol }

let intrinsic_method ~cls ~name ~shorty ?(static = true) key =
  { Classes.m_class = cls; m_name = name; m_shorty = shorty; m_static = static;
    m_registers = 0; m_body = Classes.Intrinsic key }

let class_ ~name ?super ?(fields = []) ?(static_fields = []) methods =
  { Classes.c_name = name;
    c_super = super;
    c_fields =
      List.map (fun f -> { Classes.fd_name = f; fd_static = false }) fields
      @ List.map (fun f -> { Classes.fd_name = f; fd_static = true }) static_fields;
    c_methods = methods }
