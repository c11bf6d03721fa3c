module Taint = Ndroid_taint.Taint

type resolved = { r_m : Classes.method_def; r_argc : int; r_body : body }

and body = Code of t | Not_bytecode

and t = {
  l_src : Bytecode.t array;
  l_code : insn array;
  l_handlers : Classes.handler list;
}

and invoke_site = {
  iv_kind : Bytecode.invoke_kind;
  iv_ref : Bytecode.method_ref;
  iv_args : int array;
  iv_argc : int;
  mutable iv_cls : string;
  mutable iv_cache : resolved option;
}

and field_site = {
  fs_ref : Bytecode.field_ref;
  mutable fs_cls : string;
  mutable fs_idx : int;
}

and static_site = {
  ss_ref : Bytecode.field_ref;
  mutable ss_cell : (Dvalue.t * Taint.t) ref option;
}

and size_site = { ns_cls : string; mutable ns_size : int }

and insn =
  | Nop
  | Const of int * Dvalue.t
  | Const_string of int * string
  | Move of int * int
  | Move_result of int
  | Move_exception of int
  | Return_void
  | Return of int
  | Binop of Bytecode.binop * int * int * int
  | Binop_wide of Bytecode.binop * int * int * int
  | Binop_float of Bytecode.binop * int * int * int
  | Binop_double of Bytecode.binop * int * int * int
  | Binop_lit of Bytecode.binop * int * int * int32
  | Unop of Bytecode.unop * int * int
  | Cmp_long of int * int * int
  | If of Bytecode.cmp * int * int * int
  | Ifz of Bytecode.cmp * int * int
  | Goto of int
  | New_instance of int * size_site
  | New_array of int * int * string
  | Array_length of int * int
  | Aget of int * int * int
  | Aput of int * int * int
  | Iget of int * int * field_site
  | Iput of int * int * field_site
  | Sget of int * static_site
  | Sput of int * static_site
  | Invoke of invoke_site
  | Throw of int
  | Check_cast of int * string
  | Instance_of of int * int * string
  | Packed_switch of int * int32 * int array
  | Sparse_switch of int * (int32 * int) array

let link_insn (b : Bytecode.t) : insn =
  match b with
  | Bytecode.Nop -> Nop
  | Bytecode.Const (r, v) -> Const (r, v)
  | Bytecode.Const_string (r, s) -> Const_string (r, s)
  | Bytecode.Move (d, s) -> Move (d, s)
  | Bytecode.Move_result r -> Move_result r
  | Bytecode.Move_exception r -> Move_exception r
  | Bytecode.Return_void -> Return_void
  | Bytecode.Return r -> Return r
  | Bytecode.Binop (op, d, a, b) -> Binop (op, d, a, b)
  | Bytecode.Binop_wide (op, d, a, b) -> Binop_wide (op, d, a, b)
  | Bytecode.Binop_float (op, d, a, b) -> Binop_float (op, d, a, b)
  | Bytecode.Binop_double (op, d, a, b) -> Binop_double (op, d, a, b)
  | Bytecode.Binop_lit (op, d, a, lit) -> Binop_lit (op, d, a, lit)
  | Bytecode.Unop (op, d, s) -> Unop (op, d, s)
  | Bytecode.Cmp_long (d, a, b) -> Cmp_long (d, a, b)
  | Bytecode.If (c, a, b, t) -> If (c, a, b, t)
  | Bytecode.Ifz (c, a, t) -> Ifz (c, a, t)
  | Bytecode.Goto t -> Goto t
  | Bytecode.New_instance (r, cls) ->
    New_instance (r, { ns_cls = cls; ns_size = -1 })
  | Bytecode.New_array (d, n, ty) -> New_array (d, n, ty)
  | Bytecode.Array_length (d, a) -> Array_length (d, a)
  | Bytecode.Aget (v, a, i) -> Aget (v, a, i)
  | Bytecode.Aput (v, a, i) -> Aput (v, a, i)
  | Bytecode.Iget (v, o, f) ->
    Iget (v, o, { fs_ref = f; fs_cls = ""; fs_idx = -1 })
  | Bytecode.Iput (v, o, f) ->
    Iput (v, o, { fs_ref = f; fs_cls = ""; fs_idx = -1 })
  | Bytecode.Sget (v, f) -> Sget (v, { ss_ref = f; ss_cell = None })
  | Bytecode.Sput (v, f) -> Sput (v, { ss_ref = f; ss_cell = None })
  | Bytecode.Invoke (kind, mref, regs) ->
    let args = Array.of_list regs in
    Invoke
      { iv_kind = kind;
        iv_ref = mref;
        iv_args = args;
        iv_argc = Array.length args;
        iv_cls = "";
        iv_cache = None }
  | Bytecode.Throw r -> Throw r
  | Bytecode.Check_cast (r, cls) -> Check_cast (r, cls)
  | Bytecode.Instance_of (d, r, cls) -> Instance_of (d, r, cls)
  | Bytecode.Packed_switch (r, first, targets) ->
    Packed_switch (r, first, targets)
  | Bytecode.Sparse_switch (r, entries) -> Sparse_switch (r, entries)

(* The link pass: pure, allocates fresh (empty) site caches. *)
let of_code code handlers =
  { l_src = code; l_code = Array.map link_insn code; l_handlers = handlers }

let resolve (m : Classes.method_def) =
  let body =
    match m.Classes.m_body with
    | Classes.Bytecode (code, handlers) -> Code (of_code code handlers)
    | Classes.Native _ | Classes.Intrinsic _ -> Not_bytecode
  in
  { r_m = m; r_argc = Classes.ins_count m; r_body = body }
