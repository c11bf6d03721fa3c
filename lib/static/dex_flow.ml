module B = Ndroid_dalvik.Bytecode
module Classes = Ndroid_dalvik.Classes
module Taint = Ndroid_taint.Taint
module T = Taint

type ctx = {
  dx_cg : Callgraph.t;
  dx_fields : (string * string, T.t) Hashtbl.t;
  mutable dx_arrays : T.t;  (* one summary cell for all array contents *)
  mutable dx_ex : T.t;  (* pending-exception taint *)
  mutable dx_changed : bool;
  dx_record : Flow.t -> unit;
  dx_native_call : Classes.method_def -> T.t list -> ctrl:T.t -> T.t;
  dx_memo : (string * int list, T.t) Hashtbl.t;
  mutable dx_stack : (string * string) list;
}

let make ~cg ~record ~native_call =
  { dx_cg = cg; dx_fields = Hashtbl.create 32; dx_arrays = T.clear;
    dx_ex = T.clear; dx_changed = false; dx_record = record;
    dx_native_call = native_call;
    dx_memo = Hashtbl.create 64; dx_stack = [] }

let reset_memo ctx = Hashtbl.reset ctx.dx_memo
let changed ctx = ctx.dx_changed
let clear_changed ctx = ctx.dx_changed <- false

let unions = List.fold_left T.union T.clear

let short_sink_name cls m =
  let s = cls in
  let s =
    if String.length s >= 2 && s.[0] = 'L' && s.[String.length s - 1] = ';'
    then String.sub s 1 (String.length s - 2)
    else s
  in
  let s =
    match String.rindex_opt s '/' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  s ^ "." ^ m

let grow_field ctx key t =
  let cur =
    match Hashtbl.find_opt ctx.dx_fields key with Some v -> v | None -> T.clear
  in
  if not (T.subset t cur) then begin
    Hashtbl.replace ctx.dx_fields key (T.union cur t);
    ctx.dx_changed <- true
  end

let field_taint ctx key =
  match Hashtbl.find_opt ctx.dx_fields key with Some v -> v | None -> T.clear

let grow_arrays ctx t =
  if not (T.subset t ctx.dx_arrays) then begin
    ctx.dx_arrays <- T.union ctx.dx_arrays t;
    ctx.dx_changed <- true
  end

let grow_ex ctx t =
  if not (T.subset t ctx.dx_ex) then begin
    ctx.dx_ex <- T.union ctx.dx_ex t;
    ctx.dx_changed <- true
  end

let rec analyze_method ctx (def : Classes.method_def) args =
  match def.Classes.m_body with
  | Classes.Native _ -> ctx.dx_native_call def args ~ctrl:T.clear
  | Classes.Intrinsic _ -> unions args
  | Classes.Bytecode (code, handlers) ->
    let node = (def.Classes.m_class, def.Classes.m_name) in
    if List.mem node ctx.dx_stack then unions args
    else begin
      let key = (Classes.qualified_name def, List.map T.to_bits args) in
      match Hashtbl.find_opt ctx.dx_memo key with
      | Some r -> r
      | None ->
        ctx.dx_stack <- node :: ctx.dx_stack;
        let r = run_bytecode ctx def code handlers args in
        ctx.dx_stack <- List.tl ctx.dx_stack;
        Hashtbl.replace ctx.dx_memo key r;
        r
    end

and run_bytecode ctx (def : Classes.method_def) code handlers args =
  let n = Array.length code in
  if n = 0 then T.clear
  else begin
    let cfg = Dex_cfg.of_code ~handlers code in
    let nregs =
      max (max def.Classes.m_registers (List.length args)) (Dex_cfg.max_reg code + 1)
    in
    let res_slot = nregs and ctrl_slot = nregs + 1 in
    let nslots = nregs + 2 in
    let states : T.t array option array = Array.make n None in
    let work = Queue.create () in
    let ret = ref T.clear in
    let init = Array.make nslots T.clear in
    (* parameters land in the highest registers, as in the interpreter *)
    let first_in = nregs - List.length args in
    List.iteri (fun i t -> init.(first_in + i) <- t) args;
    states.(0) <- Some init;
    Queue.add 0 work;
    let push pc st =
      if pc >= 0 && pc < n then
        match states.(pc) with
        | None ->
          states.(pc) <- Some st;
          Queue.add pc work
        | Some old ->
          let changed = ref false in
          let joined =
            Array.init nslots (fun i ->
                let u = T.union old.(i) st.(i) in
                if not (T.equal u old.(i)) then changed := true;
                u)
          in
          if !changed then begin
            states.(pc) <- Some joined;
            Queue.add pc work
          end
    in
    let fuel = ref (n * 64 * nslots) in
    while (not (Queue.is_empty work)) && !fuel > 0 do
      decr fuel;
      let pc = Queue.pop work in
      match states.(pc) with
      | None -> ()
      | Some st ->
        let t r = if r >= 0 && r < nregs then st.(r) else T.clear in
        let ctrl = st.(ctrl_slot) in
        let st' = Array.copy st in
        let set r v = if r >= 0 && r < nregs then st'.(r) <- v in
        let set_result v = st'.(res_slot) <- v in
        (match code.(pc) with
         | B.Nop | B.Goto _ -> ()
         | B.Const (r, _) | B.Const_string (r, _) | B.New_instance (r, _) ->
           set r ctrl
         | B.Move (d, s) -> set d (T.union (t s) ctrl)
         | B.Move_result r -> set r (T.union st.(res_slot) ctrl)
         | B.Move_exception r -> set r (T.union ctx.dx_ex ctrl)
         | B.Return_void -> ()
         | B.Return r -> ret := unions [ !ret; t r; ctrl ]
         | B.Binop (_, d, a, b) | B.Binop_wide (_, d, a, b)
         | B.Binop_float (_, d, a, b) | B.Binop_double (_, d, a, b)
         | B.Cmp_long (d, a, b) -> set d (unions [ t a; t b; ctrl ])
         | B.Binop_lit (_, d, s, _) | B.Unop (_, d, s) ->
           set d (T.union (t s) ctrl)
         | B.If (_, a, b, _) ->
           st'.(ctrl_slot) <- unions [ ctrl; t a; t b ]
         | B.Ifz (_, a, _) -> st'.(ctrl_slot) <- T.union ctrl (t a)
         | B.Packed_switch (s, _, _) | B.Sparse_switch (s, _) ->
           st'.(ctrl_slot) <- T.union ctrl (t s)
         | B.New_array (d, sz, _) -> set d (T.union (t sz) ctrl)
         | B.Array_length (d, a) -> set d (T.union (t a) ctrl)
         | B.Aget (d, arr, idx) ->
           set d (unions [ ctx.dx_arrays; t arr; t idx; ctrl ])
         | B.Aput (v, arr, idx) ->
           grow_arrays ctx (unions [ t v; t arr; t idx; ctrl ])
         | B.Iget (d, o, f) ->
           set d (unions [ field_taint ctx (f.B.f_class, f.B.f_name); t o; ctrl ])
         | B.Iput (v, _, f) ->
           grow_field ctx (f.B.f_class, f.B.f_name) (T.union (t v) ctrl)
         | B.Sget (d, f) ->
           set d (T.union (field_taint ctx (f.B.f_class, f.B.f_name)) ctrl)
         | B.Sput (v, f) ->
           grow_field ctx (f.B.f_class, f.B.f_name) (T.union (t v) ctrl)
         | B.Check_cast _ -> ()
         | B.Instance_of (d, s, _) -> set d (T.union (t s) ctrl)
         | B.Throw r -> grow_ex ctx (T.union (t r) ctrl)
         | B.Invoke (_, mref, regs) -> (
           let cls = mref.B.m_class and m = mref.B.m_name in
           let argts = List.map (fun r -> T.union (t r) ctrl) regs in
           let au = unions argts in
           match Callgraph.source_tag cls m with
           | Some tag -> set_result (T.union tag ctrl)
           | None ->
             if Callgraph.is_sink cls m then begin
               let leak = T.union au ctrl in
               if T.is_tainted leak then
                 ctx.dx_record
                   { Flow.f_taint = leak; f_sink = short_sink_name cls m;
                     f_context = Flow.Java_ctx;
                     f_site = Classes.qualified_name def; f_hops = [] };
               set_result ctrl
             end
             else if Callgraph.is_load_call cls m then set_result ctrl
             else
               match Callgraph.find_method ctx.dx_cg (cls, m) with
               | Some callee -> (
                 match callee.Classes.m_body with
                 | Classes.Native _ ->
                   set_result
                     (T.union (ctx.dx_native_call callee argts ~ctrl) ctrl)
                 | Classes.Bytecode _ ->
                   set_result (T.union (analyze_method ctx callee argts) ctrl)
                 | Classes.Intrinsic _ -> set_result (T.union au ctrl))
               | None ->
                 (* unknown framework call: result summarizes arguments *)
                 set_result (T.union au ctrl)));
        List.iter (fun s -> push s st') (Dex_cfg.succs cfg pc);
        List.iter (fun h -> push h st') (Dex_cfg.handler_succs cfg pc)
    done;
    !ret
  end
