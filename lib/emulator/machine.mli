(** The whole-system machine: CPU + memory + host-function dispatch + the
    instrumentation event stream.

    This plays QEMU's role in NDroid's architecture (paper, Fig. 4).
    Library functions ([libdvm]'s JNI functions, libc, libm) are {e host
    functions}: OCaml handlers mounted at guest addresses.  A branch that
    lands on one runs the handler and returns — and, like NDroid's
    TCG-insertion hooking (Sec. V-G), emits pre/post events keyed by the
    function's address and name.  Everything else is stepped instruction by
    instruction, calling the typed instruction hooks before each one so an
    attached tracer sees the machine state the instruction is about to
    consume. *)

module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Insn = Ndroid_arm.Insn
module Exec = Ndroid_arm.Exec
module Icache = Ndroid_arm.Icache

type host_fn = { hf_name : string; hf_lib : string; hf_addr : int }

(** Events at control transfers and host-function boundaries.  Instructions
    are not events: they go to the typed hooks of {!add_insn_hook}.
    [Ev_branch] carries a mutable payload: the machine reuses one
    preallocated cell, rewriting the fields per emission, so branch
    delivery allocates nothing.  Listeners must read the fields during the
    callback and never retain the event value. *)
type event =
  | Ev_branch of { mutable from_ : int; mutable to_ : int;
                   mutable is_call : bool }
      (** any control transfer, including synthetic ones host functions emit
          when they call other host functions *)
  | Ev_host_pre of host_fn
  | Ev_host_post of host_fn
  | Ev_svc of int

exception Runaway of int
(** Raised when a run exceeds its fuel (instruction budget). *)

(** {1 Host-function layouts} *)

type 'ctx host_layout
(** Where the host functions live and what they do: per entry a library,
    a name, a guest address, and a handler that takes a context value
    (for the device, the device itself).  A layout is built once and only
    read afterwards, so every machine can mount the same one — also from
    several domains at once. *)

val host_layout :
  (string * string * int * ('ctx -> Cpu.t -> Memory.t -> unit)) list ->
  'ctx host_layout
(** [host_layout [(lib, name, addr, handler); ...]].  A handler must
    follow the AAPCS (result in r0).  Nothing the layout allocates goes
    straight to the major heap (up to 512 entries), so building one when
    a program starts adds no major-GC work to its start-up.
    @raise Invalid_argument on a repeated address or name. *)

val layout_addr : 'ctx host_layout -> string -> int option
(** Address of the entry with a given name. *)

(** {1 Machines} *)

type t

val create : unit -> t
(** Fresh machine: empty memory, stack pointer at the top of the stack
    region, no listeners, instruction cache enabled, no host functions
    (the empty layout mounted). *)

val mount_layout : t -> 'ctx host_layout -> 'ctx -> unit
(** Make [layout]'s entries the machine's host functions, each handler
    run against [ctx].  Replaces the layout mounted before.  Costs one
    small record: nothing per entry. *)

val cpu : t -> Cpu.t
val mem : t -> Memory.t

val set_icache_enabled : t -> bool -> unit
(** Ablation A1: disable the hot-instruction decode cache. *)

val set_host_fn_work : t -> int -> unit
(** Baseline cost of one host-function dispatch, in abstract work units
    (default 2500).  A mounted library function stands for a real function
    body of dozens-to-hundreds of instructions; charging that body in
    {e every} configuration is what makes summary-based instrumentation
    nearly free relative to it (the Fig. 10 MALLOCS/Disk rows) while
    instruction-level instrumentation (DroidScope) still pays per
    instruction. *)

val icache_stats : t -> int * int
(** (hits, misses). *)

val on_code_write : t -> (int -> unit) -> unit
(** [on_code_write t f] calls [f] with the start address of every guest
    write into a loaded program's image (see {!load_program}), after the
    decode-cache slots the write covers have been evicted.  One observer,
    replaced by the next call; the device marks native summaries dirty
    here. *)

val host_fn_addr : t -> string -> int
(** Address of a mounted function by name. @raise Not_found. *)

val find_host_fn : t -> int -> host_fn option

val add_listener : t -> (event -> unit) -> unit
(** Attach an analysis.  Listeners run in attachment order. *)

val add_insn_hook : t -> (int -> Insn.t -> unit) -> unit
(** [add_insn_hook t f] calls [f addr insn] for every guest instruction
    the per-instruction loop steps.  Hooks run {e before} the instruction
    executes, so they see the state it is about to consume, and they run
    in attachment order.  The machine decodes once and passes the same
    decoded [insn] to every hook and to execution; nothing is allocated
    per call.  Superblock execution calls no hooks (see
    {!enable_superblocks}). *)

val clear_listeners : t -> unit
(** Detach every listener and every instruction hook. *)

val set_obs : t -> Ndroid_obs.Ring.t -> unit
(** Record machine activity into an observability hub (default:
    {!Ndroid_obs.Ring.disabled}).  Host-function entries and exits are
    recorded whenever the ring is on, ahead of the listeners' own events;
    each stepped instruction is recorded only while the ring's [tracing]
    gate is up.  Replaces any hub set before. *)

val in_host_range : t -> int -> bool
(** [in_host_range t addr] is [false] when [addr] lies outside the bounds
    of every mounted host-function address: two compares that let a
    per-branch check skip the host-function lookup for guest targets.
    [true] does not mean a function is mounted there. *)

val emit_branch : t -> from_:int -> to_:int -> is_call:bool -> unit
(** Host functions use this to surface their internal call chains (e.g.
    [CallVoidMethodA] → [dvmCallMethodA] → [dvmInterpret]) as branch events
    so multilevel hooking can follow them (paper, Fig. 5). *)

val call_host : t -> from_:int -> string -> unit
(** [call_host t ~from_ name] invokes a mounted host function from host
    code, producing the full event sequence a guest call would: a call
    branch [from_ → addr], [Ev_host_pre], the handler, [Ev_host_post], and
    a return branch [addr → from_ + 4].  This is how libdvm internals
    surface their call chains ([NewStringUTF] → [dvmCreateStringFromCstr],
    Fig. 6; the Fig. 5 chain).  Arguments and results travel in registers,
    as they would on hardware.  @raise Not_found for unmounted names. *)

val load_program : t -> Ndroid_arm.Asm.program -> unit
(** Copy an assembled library into guest memory and remember it in the
    memory map.  Its image is watched: a later guest write into it evicts
    the decode-cache entries the write may have changed, bumps
    {!Ndroid_arm.Memory.code_gen} and reaches {!on_code_write}. *)

val call_native : t -> ?fuel:int -> addr:int -> args:int list ->
  ?stack_args:int list -> unit -> int * int
(** Call a guest function: set up arguments per the AAPCS, run until it
    returns, give back (r0, r1).  Re-entrant — host functions may call back
    into guest code.  [fuel] (default 50M) bounds the instruction count.
    @raise Runaway when the fuel runs out. *)

val enable_superblocks :
  ?engine:Taint_engine.t ->
  ?on_block_entry:(int -> unit) ->
  ?is_boundary:(int -> bool) ->
  ?ring:Ndroid_obs.Ring.t ->
  t ->
  Superblock.t
(** Switch guest execution from the per-instruction fetch/decode/event
    loop to superblock execution: straight-line regions pre-decoded once,
    with Table V taint transfers fused at translate time and applied
    against [engine].  [on_block_entry] runs at
    every block entry (source-policy application); [is_boundary] addresses
    always start a block.  Note that block execution calls {e no}
    instruction hooks and records no instructions in the obs ring — taint
    propagation happens through the fused ops instead — so it must not be
    combined with analyses that depend on per-instruction hooks (the attach
    layer keeps per-insn tracing and superblocks mutually exclusive). *)

val superblocks : t -> Superblock.t option

val insn_count : t -> int
(** Guest instructions executed so far. *)

val libs : t -> (string * int * int) list
(** Loaded/mounted regions (name, base, size) — input to the OS-level view
    reconstructor. *)
