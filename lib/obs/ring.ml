module E = Event

type t = {
  cells : Event.record array;
  cap : int;
  mutable next : int;
  mutable total : int;
  mutable lines : int;
  mutable overwritten : int;
  mutable on : bool;
  mutable tracing : bool;
  metrics : Metrics.t;
}

let create ?(capacity = 16384) ?(tracing = false) () =
  let cap = max 16 capacity in
  { cells = Array.init cap (fun _ -> Event.fresh_record ());
    cap;
    next = 0;
    total = 0;
    lines = 0;
    overwritten = 0;
    on = true;
    tracing;
    metrics = Metrics.create () }

(* The shared do-nothing instance: [on = false] short-circuits every
   emitter to one load and one branch, which is what keeps the interpreter
   and emulator hot paths at full speed when nothing is observing. *)
let disabled =
  let t = create ~capacity:16 () in
  t.on <- false;
  t

let on t = t.on
let tracing t = t.on && t.tracing

let set_tracing t b =
  t.tracing <- b;
  if b then t.on <- true

let metrics t = t.metrics
let capacity t = t.cap
let total t = t.total
let lines t = t.lines
let size t = min t.total t.cap
let overwritten t = t.overwritten

(* [overwritten] deliberately survives [clear]: it is the monotonic
   provenance-gap ledger for the ring's whole life (a per-task engine
   clears between apps, and the gaps must still add up in the merged
   sweep metrics). *)
let clear t =
  t.next <- 0;
  t.total <- 0;
  t.lines <- 0

(* hot-path cell acquisition: rewrite the next preallocated record *)
let cell t kind =
  let c = Array.unsafe_get t.cells t.next in
  t.next <- (if t.next + 1 = t.cap then 0 else t.next + 1);
  c.E.e_seq <- t.total;
  if t.total >= t.cap then t.overwritten <- t.overwritten + 1;
  t.total <- t.total + 1;
  c.E.e_kind <- kind;
  c

let point t kind ~name ~detail ~addr ~taint =
  let c = cell t kind in
  c.E.e_name <- name;
  c.E.e_detail <- detail;
  c.E.e_addr <- addr;
  c.E.e_taint <- taint

(* ---- emitters (all gated on [on]; [emit_insn] on [tracing]) ---- *)

let emit_log t line =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_log ~name:line ~detail:"" ~addr:0 ~taint:0
  end

let logf t fmt = Format.kasprintf (emit_log t) fmt

let emit_invoke t name =
  if t.on then point t E.K_invoke ~name ~detail:"" ~addr:0 ~taint:0

let emit_return t name =
  if t.on then point t E.K_return ~name ~detail:"" ~addr:0 ~taint:0

let emit_jni_begin t ~name ~direction ~taint =
  if t.on then point t E.K_jni_begin ~name ~detail:direction ~addr:0 ~taint

let emit_jni_end t ~name ~direction ~taint =
  if t.on then point t E.K_jni_end ~name ~detail:direction ~addr:0 ~taint

let emit_jni_ret t ~name ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_jni_ret ~name ~detail:"" ~addr:0 ~taint
  end

let emit_source t ~name ~cls ~addr ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_source ~name ~detail:cls ~addr ~taint
  end

let emit_policy_apply t ~addr =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_policy_apply ~name:"" ~detail:"" ~addr ~taint:0
  end

let emit_arg_taint t ~idx ~value ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_arg_taint ~name:"" ~detail:value ~addr:idx ~taint
  end

let emit_taint_reg t ~reg ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_taint_reg ~name:"" ~detail:"" ~addr:reg ~taint
  end

let emit_taint_mem t ~addr ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_taint_mem ~name:"" ~detail:"" ~addr ~taint
  end

let emit_sink_begin t ~sink =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_sink_begin ~name:sink ~detail:"" ~addr:0 ~taint:0
  end

let emit_sink t ~sink ~detail ~taint =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_sink ~name:sink ~detail ~addr:0 ~taint
  end

let emit_sink_end t ~sink =
  if t.on then begin
    t.lines <- t.lines + 1;
    point t E.K_sink_end ~name:sink ~detail:"" ~addr:0 ~taint:0
  end

let emit_gc_begin t =
  if t.on then point t E.K_gc_begin ~name:"gc" ~detail:"" ~addr:0 ~taint:0

let emit_gc_end t =
  if t.on then point t E.K_gc_end ~name:"gc" ~detail:"" ~addr:0 ~taint:0

let emit_insn t ~addr insn =
  if t.on && t.tracing then begin
    let c = cell t E.K_insn in
    c.E.e_name <- "";
    c.E.e_detail <- "";
    c.E.e_addr <- addr;
    c.E.e_taint <- 0;
    c.E.e_insn <- insn
  end

let emit_host_enter t name =
  if t.on then point t E.K_host_enter ~name ~detail:"" ~addr:0 ~taint:0

let emit_host_leave t name =
  if t.on then point t E.K_host_leave ~name ~detail:"" ~addr:0 ~taint:0

let emit_sb_compile t ~addr ~insns =
  if t.on then point t E.K_sb_compile ~name:"" ~detail:"" ~addr ~taint:insns

let emit_summary_apply t ~name ~taint =
  if t.on then point t E.K_summary_apply ~name ~detail:"" ~addr:0 ~taint

(* ---- iteration, oldest first over the live window ---- *)

let iter t f =
  let live = size t in
  let first = (t.next - live + (2 * t.cap)) mod t.cap in
  for i = 0 to live - 1 do
    f t.cells.((first + i) mod t.cap)
  done

let fold f init t =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc
