(** The typed observability event model.

    One vocabulary for everything NDroid can narrate about a run: Dalvik
    method spans, JNI crossings, SourcePolicy firings, taint assignments,
    sink reports, GC, raw machine-trace entries, and free-form log
    lines.  Events are preallocated mutable records with int fields — the
    ring rewrites them in place, so the hot path allocates nothing
    (strings stored in events are shared, never copied). *)

type kind =
  | K_log  (** free-form flow-log line (in [e_name]) *)
  | K_invoke  (** Dalvik method entered ([e_name] = class->method) *)
  | K_return  (** Dalvik method left (normally or by throw) *)
  | K_jni_begin  (** JNI crossing entered ([e_detail] = direction) *)
  | K_jni_end
  | K_jni_ret  (** Call*Method returned taint into the native shadow regs *)
  | K_source  (** SourcePolicy fired: tainted args entered native code *)
  | K_policy_apply  (** SourceHandler initialised shadow regs at [e_addr] *)
  | K_arg_taint  (** tainted JNI argument slot [e_addr] at a crossing *)
  | K_taint_reg  (** t(rN) := tag ([e_addr] = register number) *)
  | K_taint_mem  (** t(addr) := tag *)
  | K_sink_begin  (** SinkHandler started inspecting ([e_name] = sink) *)
  | K_sink  (** tainted data reached the sink ([e_detail] = destination) *)
  | K_sink_end
  | K_gc_begin
  | K_gc_end
  | K_insn  (** executed native instruction ([e_addr], [e_insn]) *)
  | K_host_enter  (** host-function boundary ([e_name]) *)
  | K_host_leave
  | K_sb_compile  (** superblock translated ([e_addr], [e_taint] = insns) *)
  | K_summary_apply  (** native summary applied instead of emulating *)

type record = {
  mutable e_kind : kind;
  mutable e_seq : int;  (** global sequence number, monotonic per ring *)
  mutable e_name : string;
  mutable e_detail : string;
  mutable e_addr : int;
  mutable e_taint : int;  (** taint bits ({!Ndroid_taint.Taint.to_bits}) *)
  mutable e_insn : Ndroid_arm.Insn.t;  (** only meaningful for [K_insn] *)
}

val dummy_insn : Ndroid_arm.Insn.t
val fresh_record : unit -> record

val kind_name : kind -> string

val all_kinds : kind list
(** Every kind, in declaration order. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] for unknown spellings.  Lets a wire
    peer rebuild typed events from the canonical JSON codec. *)

type span = B | E | I

val span_of_kind : kind -> span
(** Chrome trace-event phase: span begin, span end, or instant. *)

val tid_of_kind : kind -> int
(** Trace-viewer lane; spans sharing a lane nest like a call stack. *)

val category : kind -> string

val render_fields :
  kind:kind -> name:string -> detail:string -> addr:int -> taint:int ->
  string option
(** {!render} over loose fields, for callers (the live stream inspector)
    that hold decoded wire events rather than ring records. *)

val render : record -> string option
(** The event's legacy flow-log line (Fig. 6-9 vocabulary), or [None] for
    kinds that never appeared in the string log.  This is the single home
    of the formatting previously duplicated across the hook engines. *)
