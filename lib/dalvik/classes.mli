(** Class, method and field definitions.

    Methods come in three bodies: Dalvik bytecode, [native] (backed by a
    symbol in a loaded native library and invoked through the JNI call
    bridge, paper Sec. V-B "JNI Entry"), and framework intrinsics
    (Java-context methods like [TelephonyManager.getDeviceId] whose bodies
    live in the simulated Android framework, as TaintDroid's modified
    framework provides them). *)

type method_body =
  | Bytecode of Bytecode.t array * handler list
  | Native of string  (** native symbol name registered by a library *)
  | Intrinsic of string  (** key into the VM's intrinsic table *)

and handler = { try_start : int; try_end : int; handler_pc : int }
(** Catch-all exception handler covering instructions
    [try_start, try_end). *)

type method_def = {
  m_class : string;
  m_name : string;
  m_shorty : string;
      (** JNI shorty: return type then parameter types, e.g. ["VL"] for
          [void f(Object)].  Types: V Z B C S I J F D L. *)
  m_static : bool;
  m_registers : int;  (** register count for bytecode bodies *)
  m_body : method_body;
}

type field_def = { fd_name : string; fd_static : bool }

type class_def = {
  c_name : string;
  c_super : string option;
  c_fields : field_def list;
  c_methods : method_def list;
}

val ins_count : method_def -> int
(** Number of input registers: parameters plus [this] for non-static
    methods, derived from the shorty (J and D take one of our registers,
    unlike real Dalvik — values are not split). *)

val return_type : method_def -> char
val qualified_name : method_def -> string
(** ["Lcom/Foo;->bar"]. *)

val shorty_params : string -> char list
(** The parameter characters of a shorty. *)
