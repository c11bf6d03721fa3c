module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Exec = Ndroid_arm.Exec
module Taint = Ndroid_taint.Taint
module Ring = Ndroid_obs.Ring

(* One level up from the direct-mapped [Icache]: instead of caching single
   decodes, cache whole straight-line regions ("superblocks") as flat
   micro-op arrays.  Each slot carries its pre-decoded instruction plus a
   taint micro-op computed once at translate time:

   - [T_fused]: the composed Table V transfer of a maximal run of
     unconditional register-only instructions — each written register's
     taint is a union over *entry* register taints, captured as a 16-bit
     dependence mask.  Applying one fused op replaces per-instruction rule
     dispatch for the whole run.
   - [T_step]: the per-instruction fallback ({!Insn_taint.step}) for
     anything whose rule needs live CPU state (memory addresses, condition
     flags, VFP registers).

   Blocks record the {!Memory.code_gen} they were translated under and a
   boundary generation (bumped when a new source-policy address appears),
   so stale translations self-invalidate on the next probe. *)

type taint_op =
  | T_none
  | T_fused of (int * int) array  (* (rd, entry-register dependence mask) *)
  | T_step

type slot = {
  sl_addr : int;
  sl_insn : Insn.t;
  sl_size : int;
  sl_taint : taint_op;
  sl_store : bool;  (* may write guest memory: re-check code_gen after *)
}

type block = {
  b_addr : int;
  b_mode : Cpu.mode;
  b_gen : int;  (* Memory.code_gen at translate time *)
  b_bgen : int;  (* boundary generation at translate time *)
  b_slots : slot array;
  mutable b_chain : block option;  (* last observed successor (direct chaining) *)
}

type t = {
  tbl : block option array;
  mask : int;
  is_boundary : int -> bool;
  mutable ring : Ring.t;
  mutable bgen : int;
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
  scratch : Taint.t array;  (* entry-register taints for fused application *)
}

(* direct-mapped table size (a power of two, for the mask) and the longest
   block translated *)
let slots = 2048
let max_insns = 32

let create ?(is_boundary = fun _ -> false) () =
  { tbl = Array.make slots None;
    mask = slots - 1;
    is_boundary;
    ring = Ring.disabled;
    bgen = 0;
    compiles = 0;
    hits = 0;
    invalidations = 0;
    scratch = Array.make 16 Taint.clear }

let set_ring t ring = t.ring <- ring
let flush t = t.bgen <- t.bgen + 1
let compiles t = t.compiles
let hits t = t.hits
let invalidations t = t.invalidations

(* ---- block boundaries ---- *)

(* Any instruction that can write the PC (or trap) ends a block: branches,
   data-processing with rd = 15, PC loads, POP {…, pc}, SVC. *)
let ends_block = function
  | Insn.B _ | Insn.Bx _ | Insn.Svc _ -> true
  | Insn.Dp { rd; _ } | Insn.Mul { rd; _ } | Insn.Mla { rd; _ }
  | Insn.Clz { rd; _ } ->
    rd = 15
  | Insn.Mull { rdlo; rdhi; _ } -> rdlo = 15 || rdhi = 15
  | Insn.Mem { load; rd; _ } -> load && rd = 15
  | Insn.Block { load; regs; _ } -> load && regs land 0x8000 <> 0
  | Insn.Vmov_core { to_core; rt; _ } -> to_core && rt = 15
  | Insn.Vdp _ | Insn.Vmem _ | Insn.Vcvt _ | Insn.Vcvt_int _ -> false

let can_store = function
  | Insn.Mem { load = false; _ }
  | Insn.Block { load = false; _ }
  | Insn.Vmem { load = false; _ } ->
    true
  | _ -> false

(* ---- symbolic Table V over entry-register dependence masks ---- *)

let op2_mask masks = function
  | Insn.Imm _ -> None
  | Insn.Reg r | Insn.Reg_shift_imm (r, _, _) | Insn.Reg_shift_reg (r, _, _) ->
    (* op2_taint ignores the shift-amount register, exactly as Table V
       only names Rn and Rm *)
    Some masks.(r)

(* [fuse_step masks written insn] folds [insn]'s Table V rule into the
   symbolic state when the rule is a pure function of entry-register taints
   — unconditional, integer, register-only.  Returns [false] (state
   untouched) for anything needing live CPU state at its program point. *)
let fuse_step masks written insn =
  let set rd m =
    masks.(rd) <- m;
    written := !written lor (1 lsl rd)
  in
  match insn with
  | Insn.Dp { cond = Insn.AL; op; rd; rn; op2; _ } when rd <> 15 -> (
    match op with
    | Insn.TST | Insn.TEQ | Insn.CMP | Insn.CMN -> true  (* flags only *)
    | Insn.MOV | Insn.MVN -> (
      match op2_mask masks op2 with
      | None -> set rd 0; true
      | Some m -> set rd m; true)
    | Insn.AND | Insn.EOR | Insn.SUB | Insn.RSB | Insn.ADD | Insn.ADC
    | Insn.SBC | Insn.RSC | Insn.ORR | Insn.BIC -> (
      match op2_mask masks op2 with
      | None -> set rd masks.(rn); true
      | Some m -> set rd (masks.(rn) lor m); true))
  | Insn.Mul { cond = Insn.AL; rd; rm; rs; _ } when rd <> 15 ->
    set rd (masks.(rm) lor masks.(rs));
    true
  | Insn.Mla { cond = Insn.AL; rd; rm; rs; rn; _ } when rd <> 15 ->
    set rd (masks.(rm) lor masks.(rs) lor masks.(rn));
    true
  | Insn.Mull { cond = Insn.AL; rdlo; rdhi; rm; rs; _ }
    when rdlo <> 15 && rdhi <> 15 ->
    let m = masks.(rm) lor masks.(rs) in
    set rdlo m;
    set rdhi m;
    true
  | Insn.Clz { cond = Insn.AL; rd; rm } when rd <> 15 ->
    set rd masks.(rm);
    true
  | _ -> false

let identity_masks () = Array.init 16 (fun i -> 1 lsl i)

let fused_pairs masks written =
  let n = ref 0 in
  for r = 0 to 15 do
    if written land (1 lsl r) <> 0 then incr n
  done;
  let pairs = Array.make !n (0, 0) in
  let i = ref 0 in
  for r = 0 to 15 do
    if written land (1 lsl r) <> 0 then begin
      pairs.(!i) <- (r, masks.(r));
      incr i
    end
  done;
  pairs

(* Whole-body fusion for the summary layer: the composed transfer of an
   entire straight-line function, or [None] if any instruction resists. *)
let fuse insns =
  let masks = identity_masks () in
  let written = ref 0 in
  if Array.for_all (fuse_step masks written) insns then
    Some (fused_pairs masks !written)
  else None

(* Compute the taint micro-op per slot: maximal fusable runs collapse to a
   single [T_fused] at the run's first slot (the rest become [T_none]),
   which is observationally equivalent because fused rules neither read nor
   are read by anything else inside the run. *)
let taint_ops insns =
  let n = Array.length insns in
  let ops = Array.make n T_none in
  let i = ref 0 in
  while !i < n do
    let masks = identity_masks () in
    let written = ref 0 in
    if fuse_step masks written insns.(!i) then begin
      let start = !i in
      incr i;
      while !i < n && fuse_step masks written insns.(!i) do
        incr i
      done;
      if !written <> 0 then ops.(start) <- T_fused (fused_pairs masks !written)
    end
    else begin
      (match insns.(!i) with
       | Insn.B _ | Insn.Bx _ | Insn.Svc _ -> ()
       | _ -> ops.(!i) <- T_step);
      incr i
    end
  done;
  ops

(* ---- translation ---- *)

(* Decode a fresh block at an address (no cache interaction); [None] if
   even the first instruction fails to decode. *)
let translate t cpu mem addr =
  let gen = Memory.code_gen mem in
  let rev = ref [] in
  let count = ref 0 in
  let pos = ref addr in
  let stop = ref false in
  (while not !stop && !count < max_insns do
     match Exec.fetch_decode cpu mem !pos with
     | exception Exec.Undefined _ -> stop := true
     | insn, size ->
       rev := (!pos, insn, size) :: !rev;
       incr count;
       pos := !pos + size;
       if ends_block insn || t.is_boundary !pos then stop := true
   done);
  match !rev with
  | [] -> None
  | rev ->
    let triples = Array.of_list (List.rev rev) in
    let insns = Array.map (fun (_, i, _) -> i) triples in
    let ops = taint_ops insns in
    let slots =
      Array.mapi
        (fun i (a, insn, size) ->
          { sl_addr = a;
            sl_insn = insn;
            sl_size = size;
            sl_taint = ops.(i);
            sl_store = can_store insn })
        triples
    in
    t.compiles <- t.compiles + 1;
    Ring.emit_sb_compile t.ring ~addr ~insns:(Array.length slots);
    Some
      { b_addr = addr;
        b_mode = cpu.Cpu.mode;
        b_gen = gen;
        b_bgen = t.bgen;
        b_slots = slots;
        b_chain = None }

let valid t mem cpu b =
  b.b_mode = cpu.Cpu.mode
  && b.b_gen = Memory.code_gen mem
  && b.b_bgen = t.bgen

let probe t cpu mem addr =
  let idx = (addr lsr 1) land t.mask in
  match t.tbl.(idx) with
  | Some b when b.b_addr = addr && valid t mem cpu b ->
    t.hits <- t.hits + 1;
    Some b
  | prev -> (
    (match prev with
     | Some b when b.b_addr = addr -> t.invalidations <- t.invalidations + 1
     | _ -> ());
    match translate t cpu mem addr with
    | None -> None
    | Some b ->
      t.tbl.(idx) <- Some b;
      Some b)

(* [chain_to b cpu mem next]: follow (or establish) the direct link from a
   just-executed block to its successor, skipping the table probe on the
   hot loop path. *)
let chain_to t prev cpu mem next =
  match prev.b_chain with
  | Some c when c.b_addr = next && valid t mem cpu c ->
    t.hits <- t.hits + 1;
    Some c
  | _ -> (
    match probe t cpu mem next with
    | Some c ->
      prev.b_chain <- Some c;
      Some c
    | None -> None)

(* ---- fused taint application ---- *)

let apply_fused t engine pairs =
  let scratch = t.scratch in
  for r = 0 to 15 do
    scratch.(r) <- Taint_engine.reg engine r
  done;
  Array.iter
    (fun (rd, mask) ->
      let tag = ref Taint.clear in
      let m = ref mask in
      while !m <> 0 do
        let r = !m land (- !m) in
        (* index of the lowest set bit *)
        let rec log2 v acc = if v = 1 then acc else log2 (v lsr 1) (acc + 1) in
        tag := Taint.union !tag scratch.(log2 r 0);
        m := !m land (!m - 1)
      done;
      Taint_engine.set_reg engine rd !tag)
    pairs
