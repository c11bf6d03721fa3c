module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Insn = Ndroid_arm.Insn
module Exec = Ndroid_arm.Exec
module Icache = Ndroid_arm.Icache
module Asm = Ndroid_arm.Asm
module Ring = Ndroid_obs.Ring

type host_fn = { hf_name : string; hf_lib : string; hf_addr : int }

(* Ev_branch has a mutable payload: the trace loop emits one preallocated
   cell per machine, overwriting the fields each branch, so branch delivery
   allocates nothing.  Listeners must read the fields during [emit] and
   never retain the event value. *)
type event =
  | Ev_branch of { mutable from_ : int; mutable to_ : int;
                   mutable is_call : bool }
  | Ev_host_pre of host_fn
  | Ev_host_post of host_fn
  | Ev_svc of int

exception Runaway of int

type t = {
  m_cpu : Cpu.t;
  m_mem : Memory.t;
  host_by_addr : (int, host_fn * (Cpu.t -> Memory.t -> unit)) Hashtbl.t;
  host_by_name : (string, host_fn * (Cpu.t -> Memory.t -> unit)) Hashtbl.t;
  (* mounted-address bounds: the trace loop's cheap "can this PC possibly be
     a host function?" gate, so guest code pays no hashtable hit per step *)
  mutable host_lo : int;
  mutable host_hi : int;
  mutable listeners : (event -> unit) array;
  mutable insn_hooks : (int -> Insn.t -> unit) array;
  mutable obs : Ring.t;
  mutable icache : Icache.t option;
  mutable insn_count : int;
  mutable host_calls : int;
  mutable libs : (string * int * int) list;
  mutable fuel : int;  (* set by the outermost call_native; -1 = unlimited *)
  mutable host_work : int;
  scratch : Exec.run;  (* reused per-step result; never escapes [step] *)
  ev_branch : event;  (* preallocated Ev_branch cell, fields rewritten *)
  (* superblock execution (off by default): pre-decoded straight-line
     blocks with fused taint transfers replace the per-insn fetch/decode/
     event loop for eligible PCs *)
  mutable sb : Superblock.t option;
  mutable sb_engine : Taint_engine.t option;
  mutable sb_entry : int -> unit;  (* block-entry hook (policy application) *)
}

let create () =
  let cpu = Cpu.create () in
  Cpu.set_sp cpu Layout.stack_top;
  { m_cpu = cpu;
    m_mem = Memory.create ();
    host_by_addr = Hashtbl.create 256;
    host_by_name = Hashtbl.create 256;
    host_lo = max_int;
    host_hi = min_int;
    listeners = [||];
    insn_hooks = [||];
    obs = Ring.disabled;
    icache = Some (Icache.create ());
    insn_count = 0;
    host_calls = 0;
    libs = Layout.regions;
    fuel = -1;
    host_work = 2500;
    scratch = Exec.run_create ();
    ev_branch = Ev_branch { from_ = 0; to_ = 0; is_call = false };
    sb = None;
    sb_engine = None;
    sb_entry = ignore }

let cpu t = t.m_cpu
let mem t = t.m_mem

let set_icache_enabled t enabled =
  t.icache <- (if enabled then Some (Icache.create ()) else None)

let set_host_fn_work t n = t.host_work <- max 0 n

(* The stand-in for the instructions a real library function body would
   execute: paid in every configuration. *)
let burn_host_work t =
  let acc = ref 1 in
  for i = 1 to t.host_work do
    acc := (!acc * 33) + i
  done;
  ignore (Sys.opaque_identity !acc)

let icache_stats t =
  match t.icache with
  | Some c -> (Icache.hits c, Icache.misses c)
  | None -> (0, 0)

let mount_host_fn t ~lib ~name ~addr run =
  if Hashtbl.mem t.host_by_addr addr then
    invalid_arg (Printf.sprintf "host address 0x%x already mounted" addr);
  let hf = { hf_name = name; hf_lib = lib; hf_addr = addr } in
  Hashtbl.replace t.host_by_addr addr (hf, run);
  Hashtbl.replace t.host_by_name name (hf, run);
  if addr < t.host_lo then t.host_lo <- addr;
  if addr > t.host_hi then t.host_hi <- addr;
  hf

let host_fn_addr t name = (fst (Hashtbl.find t.host_by_name name)).hf_addr

let find_host_fn t addr =
  match Hashtbl.find_opt t.host_by_addr addr with
  | Some (hf, _) -> Some hf
  | None -> None

(* Listeners and instruction hooks live in arrays: attaching stays in
   attachment order, and delivery is an allocation-free indexed loop. *)
let add_listener t f = t.listeners <- Array.append t.listeners [| f |]
let add_insn_hook t f = t.insn_hooks <- Array.append t.insn_hooks [| f |]

let clear_listeners t =
  t.listeners <- [||];
  t.insn_hooks <- [||]

let has_listeners t = Array.length t.listeners > 0
let set_obs t ring = t.obs <- ring
let in_host_range t addr = addr >= t.host_lo && addr <= t.host_hi

let emit t ev =
  let ls = t.listeners in
  for i = 0 to Array.length ls - 1 do
    ls.(i) ev
  done

(* The host boundary goes to the obs ring before the listeners see it, so
   the ring shows a host call's enter ahead of the events its hooks emit. *)
let host_pre t hf =
  Ring.emit_host_enter t.obs hf.hf_name;
  if has_listeners t then emit t (Ev_host_pre hf)

let host_post t hf =
  Ring.emit_host_leave t.obs hf.hf_name;
  if has_listeners t then emit t (Ev_host_post hf)

let emit_branch t ~from_ ~to_ ~is_call =
  if has_listeners t then begin
    (match t.ev_branch with
     | Ev_branch r ->
       r.from_ <- from_;
       r.to_ <- to_;
       r.is_call <- is_call
     | _ -> assert false);
    emit t t.ev_branch
  end

let call_host t ~from_ name =
  let hf, run = Hashtbl.find t.host_by_name name in
  t.host_calls <- t.host_calls + 1;
  burn_host_work t;
  emit_branch t ~from_ ~to_:hf.hf_addr ~is_call:true;
  host_pre t hf;
  run t.m_cpu t.m_mem;
  host_post t hf;
  emit_branch t ~from_:hf.hf_addr ~to_:(from_ + 4) ~is_call:false

let load_program t prog =
  Asm.load prog t.m_mem;
  (* watch the image so later guest writes into it (self-modifying or
     decrypting code) invalidate superblocks and native summaries *)
  Memory.watch_code t.m_mem ~lo:(Asm.base prog)
    ~hi:(Asm.base prog + Asm.size prog - 1);
  t.libs <- t.libs @ [ (Printf.sprintf "lib@%x" (Asm.base prog), Asm.base prog,
                        Asm.size prog) ]

let mask32 = 0xFFFFFFFF

let burn t =
  let f = t.fuel in
  if f >= 0 then begin
    if f = 0 then raise (Runaway t.insn_count);
    t.fuel <- f - 1
  end

(* One scheduling quantum: either dispatch a host function or execute one
   guest instruction.  Returns unit; the caller polls the PC.

   Each step decodes at most once: the decode feeds the obs ring (when it
   traces), the instruction hooks, and execution via Exec.step_into.
   Host-function dispatch is gated by the mounted-address bounds, so
   ordinary guest instructions skip the host hashtable entirely. *)
let step_insn t pc =
  burn t;
  t.insn_count <- t.insn_count + 1;
  let insn, size = Exec.fetch_decode ?icache:t.icache t.m_cpu t.m_mem pc in
  if Ring.tracing t.obs then Ring.emit_insn t.obs ~addr:pc insn;
  let hooks = t.insn_hooks in
  for i = 0 to Array.length hooks - 1 do
    (Array.unsafe_get hooks i) pc insn
  done;
  if has_listeners t then begin
    let s = t.scratch in
    Exec.step_into s t.m_cpu t.m_mem ~addr:pc insn size;
    (* copy out before emitting: a listener may re-enter [step] (e.g. a
       hook running guest code) and clobber the shared scratch record *)
    let branch_to = s.Exec.r_branch_to in
    let is_call = s.Exec.r_is_call in
    let svc = s.Exec.r_svc in
    if branch_to >= 0 then emit_branch t ~from_:pc ~to_:branch_to ~is_call;
    if svc >= 0 then emit t (Ev_svc svc)
  end
  else Exec.step_into t.scratch t.m_cpu t.m_mem ~addr:pc insn size

(* Execute one superblock's slots.  Returns [true] if the block ran to its
   end, [false] if it aborted because a store slot invalidated translated
   code (the remaining pre-decoded slots may describe stale bytes). *)
let exec_block t sb b =
  let slots = b.Superblock.b_slots in
  let n = Array.length slots in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let sl = Array.unsafe_get slots !i in
    burn t;
    t.insn_count <- t.insn_count + 1;
    (match sl.Superblock.sl_taint with
     | Superblock.T_none -> ()
     | Superblock.T_fused pairs -> (
       match t.sb_engine with
       | Some e -> Superblock.apply_fused sb e pairs
       | None -> ())
     | Superblock.T_step -> (
       match t.sb_engine with
       | Some e ->
         Insn_taint.step e t.m_cpu ~addr:sl.Superblock.sl_addr
           sl.Superblock.sl_insn
       | None -> ()));
    let s = t.scratch in
    Exec.step_into s t.m_cpu t.m_mem ~addr:sl.Superblock.sl_addr
      sl.Superblock.sl_insn sl.Superblock.sl_size;
    if has_listeners t then begin
      let branch_to = s.Exec.r_branch_to in
      let is_call = s.Exec.r_is_call in
      let svc = s.Exec.r_svc in
      if branch_to >= 0 then
        emit_branch t ~from_:sl.Superblock.sl_addr ~to_:branch_to ~is_call;
      if svc >= 0 then emit t (Ev_svc svc)
    end;
    if
      sl.Superblock.sl_store
      && Memory.code_gen t.m_mem <> b.Superblock.b_gen
    then ok := false;
    incr i
  done;
  Superblock.note_insns sb !i;
  !ok

(* Block-execution loop: probe (or chain to) a block at the current PC and
   run it, staying inside this loop across block boundaries so hot guest
   loops never return to the dispatcher.  Falls out on the return sentinel,
   host-function addresses, filter-rejected PCs, untranslatable PCs, and
   mid-block self-modification. *)
let exec_blocks t sb pc0 =
  let continue_ = ref true in
  let pc = ref pc0 in
  let prev = ref None in
  while !continue_ do
    let p = !pc in
    if
      p = Layout.return_sentinel
      || (in_host_range t p && Hashtbl.mem t.host_by_addr p)
      || not (Superblock.wants sb p)
    then continue_ := false
    else begin
      match
        match !prev with
        | Some b -> Superblock.chain_to sb b t.m_cpu t.m_mem p
        | None -> Superblock.probe sb t.m_cpu t.m_mem p
      with
      | None ->
        (* untranslatable here: single-step to surface the real behaviour *)
        step_insn t p;
        continue_ := false
      | Some b ->
        t.sb_entry p;
        if exec_block t sb b then begin
          prev := Some b;
          pc := Cpu.pc t.m_cpu
        end
        else continue_ := false
    end
  done

let step t =
  let pc = Cpu.pc t.m_cpu in
  match
    if in_host_range t pc then
      Hashtbl.find_opt t.host_by_addr pc
    else None
  with
  | Some (hf, run) ->
    burn t;
    t.host_calls <- t.host_calls + 1;
    burn_host_work t;
    host_pre t hf;
    run t.m_cpu t.m_mem;
    host_post t hf;
    (* return to the caller, honouring interworking *)
    let ret = Cpu.lr t.m_cpu in
    if ret land 1 = 1 then begin
      t.m_cpu.Cpu.mode <- Cpu.Thumb;
      Cpu.set_pc t.m_cpu (ret land lnot 1)
    end
    else begin
      t.m_cpu.Cpu.mode <- Cpu.Arm;
      Cpu.set_pc t.m_cpu (ret land mask32)
    end;
    emit_branch t ~from_:hf.hf_addr ~to_:(ret land lnot 1) ~is_call:false
  | None -> (
    match t.sb with
    | Some sb when Superblock.wants sb pc -> exec_blocks t sb pc
    | _ -> step_insn t pc)

let call_native t ?(fuel = 50_000_000) ~addr ~args ?(stack_args = []) () =
  let cpu = t.m_cpu in
  let saved = Cpu.copy cpu in
  let outermost = t.fuel < 0 in
  if outermost then t.fuel <- fuel;
  Fun.protect
    ~finally:(fun () ->
      if outermost then t.fuel <- -1;
      (* restore everything; results were read before the restore *)
      Array.blit saved.Cpu.regs 0 cpu.Cpu.regs 0 16;
      cpu.Cpu.n <- saved.Cpu.n;
      cpu.Cpu.z <- saved.Cpu.z;
      cpu.Cpu.c <- saved.Cpu.c;
      cpu.Cpu.v <- saved.Cpu.v;
      cpu.Cpu.mode <- saved.Cpu.mode;
      Array.blit saved.Cpu.vfp_s 0 cpu.Cpu.vfp_s 0 32;
      Array.blit saved.Cpu.vfp_d 0 cpu.Cpu.vfp_d 0 16)
    (fun () ->
      List.iteri (fun i v -> if i < 4 then Cpu.set_reg cpu i v) args;
      (* excess register args spill to the stack before explicit stack args *)
      let reg_overflow =
        if List.length args > 4 then List.filteri (fun i _ -> i >= 4) args else []
      in
      let pushes = reg_overflow @ stack_args in
      let sp = Cpu.sp cpu - (4 * List.length pushes) in
      List.iteri (fun i v -> Memory.write_u32 t.m_mem (sp + (4 * i)) v) pushes;
      Cpu.set_sp cpu sp;
      Cpu.set_reg cpu 14 Layout.return_sentinel;
      if addr land 1 = 1 then begin
        cpu.Cpu.mode <- Cpu.Thumb;
        Cpu.set_pc cpu (addr land lnot 1)
      end
      else begin
        cpu.Cpu.mode <- Cpu.Arm;
        Cpu.set_pc cpu addr
      end;
      while Cpu.pc cpu <> Layout.return_sentinel do
        step t
      done;
      (Cpu.reg cpu 0, Cpu.reg cpu 1))

let insn_count t = t.insn_count
let host_calls t = t.host_calls
let libs t = t.libs

let enable_superblocks ?engine ?(on_block_entry = fun (_ : int) -> ())
    ?is_boundary ?filter ?ring t =
  let sb = Superblock.create ?filter ?is_boundary () in
  (match ring with Some r -> Superblock.set_ring sb r | None -> ());
  t.sb <- Some sb;
  t.sb_engine <- engine;
  t.sb_entry <- on_block_entry;
  sb

let disable_superblocks t =
  t.sb <- None;
  t.sb_engine <- None;
  t.sb_entry <- ignore

let superblocks t = t.sb
