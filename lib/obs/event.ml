module Taint = Ndroid_taint.Taint
module Insn = Ndroid_arm.Insn

type kind =
  | K_log
  | K_invoke
  | K_return
  | K_jni_begin
  | K_jni_end
  | K_jni_ret
  | K_source
  | K_policy_apply
  | K_arg_taint
  | K_taint_reg
  | K_taint_mem
  | K_sink_begin
  | K_sink
  | K_sink_end
  | K_gc_begin
  | K_gc_end
  | K_insn
  | K_host_enter
  | K_host_leave
  | K_sb_compile
  | K_summary_apply

type record = {
  mutable e_kind : kind;
  mutable e_seq : int;
  mutable e_name : string;
  mutable e_detail : string;
  mutable e_addr : int;
  mutable e_taint : int;
  mutable e_insn : Insn.t;
}

let dummy_insn = Insn.B { cond = Insn.AL; link = false; offset = 0 }

let fresh_record () =
  { e_kind = K_log; e_seq = 0; e_name = ""; e_detail = ""; e_addr = 0;
    e_taint = 0; e_insn = dummy_insn }

let kind_name = function
  | K_log -> "log"
  | K_invoke -> "invoke"
  | K_return -> "return"
  | K_jni_begin -> "jni_begin"
  | K_jni_end -> "jni_end"
  | K_jni_ret -> "jni_ret"
  | K_source -> "source"
  | K_policy_apply -> "policy_apply"
  | K_arg_taint -> "arg_taint"
  | K_taint_reg -> "taint_reg"
  | K_taint_mem -> "taint_mem"
  | K_sink_begin -> "sink_begin"
  | K_sink -> "sink"
  | K_sink_end -> "sink_end"
  | K_gc_begin -> "gc_begin"
  | K_gc_end -> "gc_end"
  | K_insn -> "insn"
  | K_host_enter -> "host_enter"
  | K_host_leave -> "host_leave"
  | K_sb_compile -> "sb_compile"
  | K_summary_apply -> "summary_apply"

let all_kinds =
  [ K_log; K_invoke; K_return; K_jni_begin; K_jni_end; K_jni_ret; K_source;
    K_policy_apply; K_arg_taint; K_taint_reg; K_taint_mem; K_sink_begin;
    K_sink; K_sink_end; K_gc_begin; K_gc_end; K_insn; K_host_enter;
    K_host_leave; K_sb_compile; K_summary_apply ]

let kind_of_name =
  let tbl = Hashtbl.create 31 in
  List.iter (fun k -> Hashtbl.replace tbl (kind_name k) k) all_kinds;
  fun name -> Hashtbl.find_opt tbl name

type span = B | E | I

let span_of_kind = function
  | K_invoke | K_jni_begin | K_sink_begin | K_gc_begin | K_host_enter -> B
  | K_return | K_jni_end | K_sink_end | K_gc_end | K_host_leave -> E
  | K_log | K_jni_ret | K_source | K_policy_apply | K_arg_taint | K_taint_reg
  | K_taint_mem | K_sink | K_insn | K_sb_compile | K_summary_apply ->
    I

(* Trace-viewer lanes: spans on one lane must nest, so each call-stack-like
   family gets its own thread id. *)
let tid_of_kind = function
  | K_invoke | K_return -> 1
  | K_jni_begin | K_jni_end | K_jni_ret | K_source | K_policy_apply
  | K_arg_taint | K_taint_reg | K_taint_mem | K_sink_begin | K_sink | K_sink_end
  | K_insn | K_host_enter | K_host_leave | K_sb_compile | K_summary_apply ->
    2
  | K_gc_begin | K_gc_end -> 3
  | K_log -> 4

let category = function
  | K_log -> "log"
  | K_invoke | K_return -> "dalvik"
  | K_jni_begin | K_jni_end | K_jni_ret -> "jni"
  | K_source | K_policy_apply | K_arg_taint -> "source"
  | K_taint_reg | K_taint_mem -> "taint"
  | K_sink_begin | K_sink | K_sink_end -> "sink"
  | K_gc_begin | K_gc_end -> "gc"
  | K_insn | K_host_enter | K_host_leave | K_sb_compile | K_summary_apply ->
    "native"

(* The string each typed event used to be logged as, before the engines
   moved off [Flow_log]'s string list: the paper's Fig. 6-9 vocabulary,
   rendered in exactly one place.  Events with no legacy spelling (machine
   trace entries, method spans) render to [None] and are invisible to the
   flow log. *)
let render_fields ~kind ~name ~detail ~addr ~taint =
  match kind with
  | K_log -> Some name
  | K_arg_taint ->
    Some
      (Format.asprintf "args[%d]@%s taint: %a" addr detail Taint.pp
         (Taint.of_bits taint))
  | K_source -> Some (Printf.sprintf "Find a source function @0x%x" addr)
  | K_policy_apply -> Some (Printf.sprintf "SourceHandler @0x%x" addr)
  | K_taint_reg ->
    Some
      (Format.asprintf "t(r%d) := %a" addr Taint.pp (Taint.of_bits taint))
  | K_taint_mem ->
    Some
      (Format.asprintf "t(%x) := %a" addr Taint.pp (Taint.of_bits taint))
  | K_jni_ret ->
    Some
      (Format.asprintf "%s End (return taint %a)" name Taint.pp
         (Taint.of_bits taint))
  | K_sink_begin -> Some (Printf.sprintf "SinkHandler[%s] begin" name)
  | K_sink ->
    Some
      (Format.asprintf "SinkHandler[%s]: taint %a -> %s" name Taint.pp
         (Taint.of_bits taint) detail)
  | K_sink_end -> Some (Printf.sprintf "SinkHandler[%s] end" name)
  | K_invoke | K_return | K_jni_begin | K_jni_end | K_gc_begin | K_gc_end
  | K_insn | K_host_enter | K_host_leave | K_sb_compile | K_summary_apply ->
    None

let render r =
  render_fields ~kind:r.e_kind ~name:r.e_name ~detail:r.e_detail ~addr:r.e_addr
    ~taint:r.e_taint
