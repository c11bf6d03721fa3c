(** Pre-linked, pre-decoded method code — the resolve-once half of the fast
    Dalvik path.

    A link pass ({!of_code}) flattens a method body into an array of
    dispatch-friendly instructions: invoke argument registers become [int
    array]s instead of lists, and every invoke / iget / iput / sget / sput /
    new-instance carries an embedded, initially-empty {e site cache}.  The
    interpreter fills each cache the first time the site executes and reuses
    it while the receiver class repeats (a monomorphic inline cache), so the
    steady state pays no hash lookups and no layout walks.

    Branch targets are already instruction indices in [Bytecode.t]; the link
    pass preserves them 1:1, and keeps the original encoding in [l_src] so
    tracing hooks ([Vm.on_bytecode]) still see [Bytecode.t] values.

    Linked code is {e per-VM}: site caches hold [Classes.method_def]s and
    static-field cells of one VM, so linked bodies must never be shared
    between VMs ([Vm] links at vtable-build time, per VM). *)

module Taint = Ndroid_taint.Taint

type resolved = {
  r_m : Classes.method_def;
  r_argc : int;  (** [Classes.ins_count r_m], cached (hot-path arity check) *)
  r_body : body;
}
(** A resolution-cache entry: a method together with its linked body. *)

and body = Code of t | Not_bytecode

and t = {
  l_src : Bytecode.t array;  (** original code, for [on_bytecode] hooks *)
  l_code : insn array;
  l_handlers : Classes.handler list;
}

and invoke_site = {
  iv_kind : Bytecode.invoke_kind;
  iv_ref : Bytecode.method_ref;
  iv_args : int array;
  iv_argc : int;
  mutable iv_cls : string;
      (** receiver class the cache is valid for (virtual sites); [""] = empty *)
  mutable iv_cache : resolved option;
}

and field_site = {
  fs_ref : Bytecode.field_ref;
  mutable fs_cls : string;  (** receiver class of the cached slot; [""] = empty *)
  mutable fs_idx : int;
}

and static_site = {
  ss_ref : Bytecode.field_ref;
  mutable ss_cell : (Dvalue.t * Taint.t) ref option;  (** resolved once *)
}

and size_site = { ns_cls : string; mutable ns_size : int  (** -1 = unresolved *) }

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

val resolve : Classes.method_def -> resolved
(** Link a method's body (fresh caches) and cache its arity. *)
