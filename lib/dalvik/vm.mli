(** The Dalvik VM state: loaded classes, static fields, the heap, the
    intrinsic (framework-method) table, and the native-dispatch hook that the
    runtime layer points at the JNI call bridge.

    Mirrors the pieces of TaintDroid's modified DVM that matter for taint:
    static fields store their tag next to the value, the per-thread
    [InterpSaveState] holds the return value's taint (paper, Fig. 1), and
    [track_taint] turns the whole propagation machinery on or off (off =
    the "vanilla" baseline of the Fig. 10 experiment).

    Resolution is resolve-once: method lookup goes through memoized
    per-class vtables (built by {!vtable} on first use, every bytecode body
    linked via {!Linked.resolve}), field slots through memoized flattened
    layouts, and the interpreter reuses per-depth register {!frame}s instead
    of allocating fresh arrays per call. *)

module Taint = Ndroid_taint.Taint

type tval = Dvalue.t * Taint.t
(** A value together with its taint tag. *)

exception Dvm_error of string
(** Linkage-style error: missing class, method, field, … *)

exception Java_throw of tval
(** An in-flight Java exception (the thrown object and its taint). *)

type counters = {
  mutable bytecodes : int;  (** bytecode instructions executed *)
  mutable invokes : int;  (** method invocations *)
  mutable native_calls : int;  (** JNI call-bridge crossings *)
  mutable jni_env_calls : int;  (** native→Java JNI function calls *)
}

type vtable = {
  vt_exact : (string * int, Linked.resolved) Hashtbl.t;
      (** (method name, ins count) → resolution along the superclass chain *)
  vt_by_name : (string, Linked.resolved) Hashtbl.t;
      (** first name hit along the chain (JNI-style name-only lookup) *)
  vt_missing_super : string option;
      (** the chain is cut at this undefined superclass, if any *)
}

type layout = {
  lay_pairs : (string * int) list;
  lay_index : (string, int) Hashtbl.t;
  lay_size : int;
}

type frame = {
  mutable f_regs : Dvalue.t array;
  mutable f_taints : Taint.t array;
}
(** A pooled interpreter frame: values and taints interleaved as two flat
    arrays indexed by register (TaintDroid Fig. 1). *)

type t = {
  classes : (string, Classes.class_def) Hashtbl.t;
  statics : (string * string, tval ref) Hashtbl.t;
      (** keyed by (class, field) — a proper pair, immune to name collisions *)
  heap : Heap.t;
  intrinsics : (string, t -> tval array -> tval) Hashtbl.t;
  mutable native_dispatch : (t -> Classes.method_def -> tval array -> tval) option;
  mutable track_taint : bool;
  mutable on_bytecode : (Classes.method_def -> Bytecode.t -> unit) option;
  mutable on_invoke : (Classes.method_def -> unit) option;
      (** fired at every bytecode-method entry — the [dvmInterpret] entry
          point; the always-hook ablation (A2) instruments here *)
  mutable ret : tval;  (** InterpSaveState: last returned value + taint *)
  counters : counters;
  vtables : (string, vtable) Hashtbl.t;  (** memoized method resolution *)
  layouts : (string, layout) Hashtbl.t;  (** memoized field layouts *)
  mutable frames : frame array;  (** interpreter frame pool, one per depth *)
  mutable depth : int;  (** current interpreter call depth *)
  mutable link_roots : (Classes.method_def * Linked.resolved) list;
  mutable obs : Ndroid_obs.Ring.t;
      (** observability hub; {!Ndroid_obs.Ring.disabled} by default, so
          emit calls in the interpreter cost one load and one branch *)
}

val create : unit -> t

val define_class : t -> Classes.class_def -> unit
(** Register a class. Resets the memoized vtables/layouts (a new class can
    complete a previously-cut superclass chain).
    @raise Dvm_error on redefinition. *)

val find_class : t -> string -> Classes.class_def

val define_method : t -> cls:string -> Classes.method_def -> unit
(** Merge a method into an existing class (or define the class fresh if
    absent).  A method with the same name and shorty already present is
    kept — app code wins over harness stubs. *)

val find_method : t -> string -> string -> Classes.method_def
(** [find_method vm cls name] resolves along the superclass chain by name
    only (JNI-style lookup). @raise Dvm_error when absent. *)

val find_method_arity : t -> string -> string -> int -> Linked.resolved
(** [find_method_arity vm cls name argc] resolves by name {e and} input
    count, so overloads dispatch correctly; falls back to the name-only hit
    when no overload matches the arity (callers then fail the arity check,
    like the seed did). @raise Dvm_error when absent. *)

val field_index : t -> string -> string -> int
val instance_size : t -> string -> int

val static_ref : t -> string -> string -> tval ref
(** The cell of a static field, creating it (zero, clear) on first use. *)

val frame : t -> int -> frame
(** The pooled frame for a call depth, growing the pool on demand.  The
    caller sizes/clears the register arrays (see [Interp]). *)

val resolved_of_method : t -> Classes.method_def -> Linked.resolved
(** Linked code for a method invoked from outside a call site; reuses the
    vtable entry when possible and memoizes ad-hoc methods by identity. *)

val register_intrinsic : t -> string -> (t -> tval array -> tval) -> unit
(** [register_intrinsic vm "Lcls;->name" f] provides a framework method. *)

val new_string : t -> ?taint:Taint.t -> string -> tval
(** Allocate a Java string; convenience for intrinsics and JNI. *)

val string_of_value : t -> Dvalue.t -> string
(** Chars of a string-object value. @raise Dvm_error otherwise. *)

val throw : t -> string -> string -> 'a
(** [throw vm cls msg] allocates an exception object carrying [msg] and
    raises {!Java_throw}. *)
