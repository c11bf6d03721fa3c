(** Builder DSL for defining classes and bytecode methods with symbolic
    labels, used by the scenario apps to stand in for compiled dex files. *)

type item =
  | I of Bytecode.t  (** a non-branching instruction *)
  | L of string  (** define a label at the next instruction *)
  | If_l of Bytecode.cmp * Bytecode.reg * Bytecode.reg * string
  | Ifz_l of Bytecode.cmp * Bytecode.reg * string
  | Goto_l of string
  | Packed_switch_l of Bytecode.reg * int32 * string list
      (** packed-switch with labelled targets *)
  | Sparse_switch_l of Bytecode.reg * (int32 * string) list

exception Build_error of string

val method_ :
  cls:string ->
  name:string ->
  shorty:string ->
  ?static:bool ->
  ?registers:int ->
  ?handlers:(string * string * string) list ->
  item list ->
  Classes.method_def
(** Build a bytecode method.  [registers] defaults to input count + 8.
    [handlers] are (try-start-label, try-end-label, handler-label)
    catch-alls. [static] defaults to [true]. *)

val native_method :
  cls:string -> name:string -> shorty:string -> string -> Classes.method_def
(** [native_method ~cls ~name ~shorty symbol]: a static method whose body
    is the native function [symbol] in a loaded library. *)

val intrinsic_method :
  cls:string -> name:string -> shorty:string -> ?static:bool -> string ->
  Classes.method_def
(** A framework method; the string names the intrinsic-table entry. *)

val class_ :
  name:string ->
  ?super:string ->
  ?fields:string list ->
  ?static_fields:string list ->
  Classes.method_def list ->
  Classes.class_def
