module Taint = Ndroid_taint.Taint
module T = Taint
module Insn = Ndroid_arm.Insn
module J = Ndroid_jni.Jni_names

type lib = {
  nf_name : string;
  nf_cfg : Native_cfg.t;
  mutable nf_mem : T.t;
  mutable nf_changed : bool;
}

let make_lib ~name prog =
  { nf_name = name; nf_cfg = Native_cfg.of_program ~name prog;
    nf_mem = T.clear; nf_changed = false }

type env = {
  e_upcall : string -> string -> T.t list -> T.t;
  e_record : Flow.t -> unit;
}

(* block-local constant propagation, just strong enough to resolve the
   assembler's load-immediate chains and FindClass/GetMethodID operands *)
type absval = Unknown | Const of int | Cls of string | Mid of string * string

type state = {
  mutable st_regs : T.t array;  (* 16 core registers *)
  mutable st_consts : absval array;
  mutable st_vfp : T.t;  (* one summary cell for the VFP bank *)
  mutable st_ctrl : T.t;  (* control (implicit-flow) taint *)
}

type actx = {
  a_env : env;
  a_lib : lib;
  a_stack : T.t;  (* taint of stack-passed JNI parameters *)
  mutable a_fuel : int;
  a_in_progress : (int, unit) Hashtbl.t;
}

let mask32 = 0xFFFFFFFF
let clearb a = a land lnot 1

let copy_state st =
  { st_regs = Array.copy st.st_regs; st_consts = Array.copy st.st_consts;
    st_vfp = st.st_vfp; st_ctrl = st.st_ctrl }

(* join [b] into a copy of [a]; also reports whether the join grew [a] *)
let join a b =
  let changed = ref false in
  let regs =
    Array.init 16 (fun i ->
        let u = T.union a.st_regs.(i) b.st_regs.(i) in
        if not (T.equal u a.st_regs.(i)) then changed := true;
        u)
  in
  let consts =
    Array.init 16 (fun i ->
        if a.st_consts.(i) = b.st_consts.(i) then a.st_consts.(i)
        else begin
          (if a.st_consts.(i) <> Unknown then changed := true);
          Unknown
        end)
  in
  let vfp = T.union a.st_vfp b.st_vfp in
  if not (T.equal vfp a.st_vfp) then changed := true;
  let ctrl = T.union a.st_ctrl b.st_ctrl in
  if not (T.equal ctrl a.st_ctrl) then changed := true;
  ({ st_regs = regs; st_consts = consts; st_vfp = vfp; st_ctrl = ctrl }, !changed)

let unions = List.fold_left T.union T.clear

let set_mem actx t =
  if not (T.subset t actx.a_lib.nf_mem) then begin
    actx.a_lib.nf_mem <- T.union actx.a_lib.nf_mem t;
    actx.a_lib.nf_changed <- true
  end

let op2_taint st = function
  | Insn.Imm _ -> T.clear
  | Insn.Reg r | Insn.Reg_shift_imm (r, _, _) -> st.st_regs.(r)
  | Insn.Reg_shift_reg (r, _, rs) -> T.union st.st_regs.(r) st.st_regs.(rs)

let op2_const st = function
  | Insn.Imm i -> Const i
  | Insn.Reg r -> st.st_consts.(r)
  | Insn.Reg_shift_imm (r, Insn.LSL, n) -> (
    match st.st_consts.(r) with
    | Const v -> Const ((v lsl n) land mask32)
    | _ -> Unknown)
  | _ -> Unknown

let const_eval st op rn op2 =
  let ov = op2_const st op2 in
  match op with
  | Insn.MOV -> ov
  | Insn.ADD | Insn.ORR | Insn.SUB | Insn.EOR | Insn.AND | Insn.BIC -> (
    match (st.st_consts.(rn), ov) with
    | Const a, Const b ->
      let r =
        match op with
        | Insn.ADD -> a + b
        | Insn.ORR -> a lor b
        | Insn.SUB -> a - b
        | Insn.EOR -> a lxor b
        | Insn.AND -> a land b
        | Insn.BIC -> a land lnot b
        | _ -> 0
      in
      Const (r land mask32)
    | _ -> Unknown)
  | _ -> Unknown

(* effect of one host call on the abstract state, from its catalogue row
   (a call the analyzer cannot resolve is [Opaque]); returns the
   return-value taint and the constant tracked for r0 *)
let host_effect actx ~site st (effect : J.effect) =
  let t i = st.st_regs.(i) in
  let mem () = actx.a_lib.nf_mem in
  let ctrl = st.st_ctrl in
  let args4 = unions [ t 0; t 1; t 2; t 3 ] in
  let cstring r =
    match st.st_consts.(r) with
    | Const a -> Native_cfg.cstring_at actx.a_lib.nf_cfg a
    | _ -> None
  in
  match effect with
  | J.Sink sink ->
    let leak = unions [ args4; mem (); ctrl ] in
    if T.is_tainted leak then
      actx.a_env.e_record
        { Flow.f_taint = leak; f_sink = sink; f_context = Flow.Native_ctx;
          f_site = site; f_hops = [] };
    (ctrl, Unknown)
  | J.Class_of_cstring -> (
    match cstring 1 with Some s -> (ctrl, Cls s) | None -> (ctrl, Unknown))
  | J.Method_id -> (
    match (st.st_consts.(1), cstring 2) with
    | Cls cls, Some m -> (ctrl, Mid (cls, m))
    | _ -> (ctrl, Unknown))
  | J.String_of_chars ->
    (* the chars pointer's pointee lives in library memory *)
    (unions [ t 1; mem (); ctrl ], Unknown)
  | J.Returns_arg i -> (T.union (t i) ctrl, Unknown)
  | J.Upcall -> (
    (* Call*Method(env, obj/cls, mid, args...): the supergraph back-edge *)
    match st.st_consts.(2) with
    | Mid (cls, m) -> (T.union (actx.a_env.e_upcall cls m [ t 3 ]) ctrl, Unknown)
    | _ -> (unions [ t 1; t 2; t 3; mem (); ctrl ], Unknown))
  | J.Clean -> (ctrl, Unknown)
  | J.Stores_args ->
    set_mem actx (T.union args4 ctrl);
    (T.union args4 ctrl, Unknown)
  | J.Opaque ->
    set_mem actx (T.union args4 ctrl);
    (unions [ args4; mem (); ctrl ], Unknown)

let rec analyze_fn actx ~entry ~args ~ctrl =
  let cfg = actx.a_lib.nf_cfg in
  let entry = clearb entry in
  let mem () = actx.a_lib.nf_mem in
  if Hashtbl.mem actx.a_in_progress entry then
    (* recursion: sound summary of anything the callee could return *)
    T.union (unions args) (T.union (mem ()) ctrl)
  else begin
    Hashtbl.replace actx.a_in_progress entry ();
    let site =
      match Native_cfg.enclosing_symbol cfg entry with
      | Some s -> s
      | None -> Printf.sprintf "0x%x" entry
    in
    let states = Hashtbl.create 64 in
    let work = Queue.create () in
    let ret = ref T.clear in
    let init =
      { st_regs = Array.make 16 T.clear; st_consts = Array.make 16 Unknown;
        st_vfp = T.clear; st_ctrl = ctrl }
    in
    List.iteri (fun i t -> if i < 4 then init.st_regs.(i) <- t) args;
    Hashtbl.replace states entry init;
    Queue.add entry work;
    let push addr st =
      match Hashtbl.find_opt states addr with
      | None ->
        Hashtbl.replace states addr st;
        Queue.add addr work
      | Some old ->
        let joined, changed = join old st in
        if changed then begin
          Hashtbl.replace states addr joined;
          Queue.add addr work
        end
    in
    let record_exit st = ret := unions [ !ret; st.st_regs.(0); st.st_ctrl ] in
    let invalidate_call_consts st r0 =
      st.st_consts.(0) <- r0;
      st.st_consts.(1) <- Unknown;
      st.st_consts.(2) <- Unknown;
      st.st_consts.(3) <- Unknown;
      st.st_consts.(12) <- Unknown
    in
    let call_effect st effect =
      let rett, r0c = host_effect actx ~site st effect in
      st.st_regs.(0) <- T.union rett st.st_ctrl;
      invalidate_call_consts st r0c
    in
    let call_addr st a =
      (* call to an absolute address: local function or host function *)
      if Native_cfg.contains cfg a then begin
        let args = [ st.st_regs.(0); st.st_regs.(1); st.st_regs.(2); st.st_regs.(3) ] in
        st.st_regs.(0) <- T.union (analyze_fn actx ~entry:a ~args ~ctrl:st.st_ctrl) st.st_ctrl;
        invalidate_call_consts st Unknown
      end
      else
        call_effect st
          (match Ndroid_runtime.Device.host_row a with
           | Some row -> row.J.effect
           | None -> J.Opaque)
    in
    let step addr st insn size =
      let next = addr + size in
      let cnd = Insn.cond_of insn in
      (* for conditionally-executed non-branch instructions the
         not-executed path re-joins at [next] *)
      let finish st' =
        push next st';
        if cnd <> Insn.AL then push next (copy_state st)
      in
      match insn with
      | Insn.B { cond; link = false; offset } ->
        let tgt = Native_cfg.branch_target cfg ~addr ~size ~offset in
        if Native_cfg.contains cfg tgt then push (clearb tgt) (copy_state st)
        else record_exit st;
        if cond <> Insn.AL then push next (copy_state st)
      | Insn.B { link = true; offset; _ } ->
        let tgt = Native_cfg.branch_target cfg ~addr ~size ~offset in
        let st' = copy_state st in
        call_addr st' tgt;
        finish st'
      | Insn.Bx { link = true; rm; _ } ->
        let st' = copy_state st in
        (match st.st_consts.(rm) with
         | Const a -> call_addr st' a
         | _ -> call_effect st' J.Opaque);
        finish st'
      | Insn.Bx { link = false; rm; _ } ->
        (match st.st_consts.(rm) with
         | Const a when rm <> 14 && Native_cfg.contains cfg a ->
           (* tail call into the library *)
           let st' = copy_state st in
           call_addr st' a;
           record_exit st'
         | _ -> record_exit st);
        if cnd <> Insn.AL then push next (copy_state st)
      | Insn.Block { load = true; rn; regs; writeback; _ } ->
        let st' = copy_state st in
        let base_t = st.st_regs.(rn) in
        let stack_t = if rn = 13 then actx.a_stack else T.clear in
        List.iter
          (fun r ->
            if r <> 15 then begin
              st'.st_regs.(r) <- unions [ mem (); base_t; stack_t; st.st_ctrl ];
              st'.st_consts.(r) <- Unknown
            end)
          (Insn.regs_of_mask regs);
        if writeback then st'.st_consts.(rn) <- Unknown;
        if regs land 0x8000 <> 0 then begin
          record_exit st';
          if cnd <> Insn.AL then push next (copy_state st)
        end
        else finish st'
      | Insn.Block { load = false; rn; regs; writeback; _ } ->
        let taint =
          List.fold_left
            (fun a r -> T.union a st.st_regs.(r))
            st.st_ctrl (Insn.regs_of_mask regs)
        in
        set_mem actx taint;
        let st' = copy_state st in
        if writeback then st'.st_consts.(rn) <- Unknown;
        finish st'
      | Insn.Mem { load = true; rd; rn; offset; writeback; _ } ->
        let off_t =
          match offset with
          | Insn.Off_reg (_, rm, _, _) -> st.st_regs.(rm)
          | Insn.Off_imm _ -> T.clear
        in
        let stack_t = if rn = 13 then actx.a_stack else T.clear in
        let v = unions [ mem (); st.st_regs.(rn); off_t; stack_t; st.st_ctrl ] in
        if rd = 15 then record_exit st
        else begin
          let st' = copy_state st in
          st'.st_regs.(rd) <- v;
          st'.st_consts.(rd) <- Unknown;
          if writeback then st'.st_consts.(rn) <- Unknown;
          finish st'
        end
      | Insn.Mem { load = false; rd; rn; offset; writeback; _ } ->
        let off_t =
          match offset with
          | Insn.Off_reg (_, rm, _, _) -> st.st_regs.(rm)
          | Insn.Off_imm _ -> T.clear
        in
        ignore off_t;
        ignore rn;
        set_mem actx (T.union st.st_regs.(rd) st.st_ctrl);
        let st' = copy_state st in
        if writeback then st'.st_consts.(rn) <- Unknown;
        finish st'
      | Insn.Dp { op; s; rd; rn; op2; _ } ->
        let o2t = op2_taint st op2 in
        let rnt = if Insn.is_move_op op then T.clear else st.st_regs.(rn) in
        if Insn.is_test_op op then begin
          (* flags computed from tainted data: every subsequent write is
             control-dependent on the data (the evasion-app rule) *)
          let st' = copy_state st in
          st'.st_ctrl <- unions [ st.st_ctrl; rnt; o2t ];
          finish st'
        end
        else begin
          let st' = copy_state st in
          if s then st'.st_ctrl <- unions [ st.st_ctrl; rnt; o2t ];
          if rd = 15 then record_exit st
          else begin
            st'.st_regs.(rd) <- unions [ rnt; o2t; st.st_ctrl ];
            st'.st_consts.(rd) <- const_eval st op rn op2;
            finish st'
          end
        end
      | Insn.Mul { s; rd; rm; rs; _ } ->
        let st' = copy_state st in
        if s then st'.st_ctrl <- unions [ st.st_ctrl; st.st_regs.(rm); st.st_regs.(rs) ];
        st'.st_regs.(rd) <- unions [ st.st_regs.(rm); st.st_regs.(rs); st.st_ctrl ];
        st'.st_consts.(rd) <- Unknown;
        finish st'
      | Insn.Mla { s; rd; rm; rs; rn; _ } ->
        let st' = copy_state st in
        let v = unions [ st.st_regs.(rm); st.st_regs.(rs); st.st_regs.(rn); st.st_ctrl ] in
        if s then st'.st_ctrl <- T.union st.st_ctrl v;
        st'.st_regs.(rd) <- v;
        st'.st_consts.(rd) <- Unknown;
        finish st'
      | Insn.Mull { s; rdlo; rdhi; rm; rs; _ } ->
        let st' = copy_state st in
        let v = unions [ st.st_regs.(rm); st.st_regs.(rs); st.st_ctrl ] in
        if s then st'.st_ctrl <- T.union st.st_ctrl v;
        st'.st_regs.(rdlo) <- v;
        st'.st_regs.(rdhi) <- v;
        st'.st_consts.(rdlo) <- Unknown;
        st'.st_consts.(rdhi) <- Unknown;
        finish st'
      | Insn.Clz { rd; rm; _ } ->
        let st' = copy_state st in
        st'.st_regs.(rd) <- T.union st.st_regs.(rm) st.st_ctrl;
        st'.st_consts.(rd) <- Unknown;
        finish st'
      | Insn.Svc _ -> finish (copy_state st)
      | Insn.Vdp _ | Insn.Vcvt _ | Insn.Vcvt_int _ -> finish (copy_state st)
      | Insn.Vmem { load = true; _ } ->
        let st' = copy_state st in
        st'.st_vfp <- unions [ st.st_vfp; mem (); st.st_ctrl ];
        finish st'
      | Insn.Vmem { load = false; _ } ->
        set_mem actx (T.union st.st_vfp st.st_ctrl);
        finish (copy_state st)
      | Insn.Vmov_core { to_core = true; rt; _ } ->
        let st' = copy_state st in
        st'.st_regs.(rt) <- T.union st.st_vfp st.st_ctrl;
        st'.st_consts.(rt) <- Unknown;
        finish st'
      | Insn.Vmov_core { to_core = false; rt; _ } ->
        let st' = copy_state st in
        st'.st_vfp <- T.union st.st_vfp st.st_regs.(rt);
        finish st'
    in
    let continue_ = ref true in
    while !continue_ && not (Queue.is_empty work) do
      if actx.a_fuel <= 0 then continue_ := false
      else begin
        actx.a_fuel <- actx.a_fuel - 1;
        let addr = Queue.pop work in
        match Hashtbl.find_opt states addr with
        | None -> ()
        | Some st -> (
          match Native_cfg.insn_at cfg addr with
          | None -> record_exit st  (* fell off into data: treat as return *)
          | Some (insn, size) -> step addr st insn size)
      end
    done;
    if actx.a_fuel <= 0 then
      (* ran out of budget: stay sound by over-approximating the result *)
      ret := unions (!ret :: mem () :: ctrl :: args);
    Hashtbl.remove actx.a_in_progress entry;
    !ret
  end

let analyze_entry env lib ~entry ~args ~stack =
  let actx =
    { a_env = env; a_lib = lib; a_stack = stack; a_fuel = 200_000;
      a_in_progress = Hashtbl.create 8 }
  in
  let args4 =
    let a = Array.make 4 T.clear in
    List.iteri (fun i t -> if i < 4 then a.(i) <- t) args;
    Array.to_list a
  in
  (* iterate to a fixpoint over the abstract memory cell: a load placed
     before a store in the sweep must observe the store's taint *)
  let rec go i acc =
    let before = T.to_bits lib.nf_mem in
    let r = T.union acc (analyze_fn actx ~entry ~args:args4 ~ctrl:T.clear) in
    if T.to_bits lib.nf_mem <> before && i < 6 then go (i + 1) r else r
  in
  go 0 T.clear
