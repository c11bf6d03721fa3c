(** The host-function catalogue: one row per function the device mounts in
    libdvm, libc or libm, read by the device (which handler to mount), both
    hook engines (what to hook) and the static analyzer (what a call does
    to taint).  This module holds the row type and libdvm's rows, grouped
    as the paper's DVM hook engine groups them (Sec. V-B): JNI entry, JNI
    exit, object creation, field access, and exception — plus the
    string/array helpers the case studies traverse ([GetStringUTFChars] in
    Figs. 7-8).  {!Ndroid_android.Libc_model} and
    {!Ndroid_android.Libm_model} hold libc's and libm's rows. *)

type lib = Libdvm | Libc | Libm

val lib_name : lib -> string
(** ["libdvm.so"], ["libc.so"], ["libm.so"]. *)

type group =
  | Jni_entry  (** Java→native: the call bridge ([dvmCallJNIMethod]) *)
  | Jni_exit  (** native→Java: [Call*Method*] → [dvmCallMethod*] → [dvmInterpret] *)
  | Object_creation  (** [New*] and the allocation functions they wrap (Table III) *)
  | Field_access  (** [Get/Set*Field] (Table IV) *)
  | Exception  (** [ThrowNew] and its helpers *)
  | String_ops  (** [GetStringUTFChars] and friends *)
  | Array_ops  (** primitive-array element access *)
  | Ref_management  (** class/method/field lookup, registration, references *)
  | Internal  (** libdvm internals reached only through other JNI functions *)
  | Syslib  (** libc/libm: NDroid's system-library hook engine (Sec. V-D) *)

(** A JNI value type, as the generated family names spell it. *)
type jtype = Void | Object | Boolean | Byte | Char | Short | Int | Long | Float | Double

val width : jtype -> int
(** Bytes per element in a native buffer: 8 for [Long]/[Double], else 4. *)

type dispatch = Virtual | Nonvirtual | Static

type style =
  | Varargs  (** [Call<T>Method]: arguments in registers and on the stack *)
  | Va_list  (** [Call<T>MethodV]: a [va_list] block *)
  | Jvalue_array  (** [Call<T>MethodA]: a [jvalue] array *)

(** Where a function sits in a generated family. *)
type shape =
  | Single  (** not part of a family *)
  | Call_method of { dispatch : dispatch; style : style; ret : jtype }
      (** Table II's 90 wrappers *)
  | Field of { set : bool; static : bool; ty : jtype }
      (** [Get/Set[Static]<T>Field] (Table IV) *)
  | New_array of jtype  (** [New<T>Array] *)
  | Array_elements of { release : bool; ty : jtype }
      (** [Get/Release<T>ArrayElements] *)
  | Array_region of { set : bool; ty : jtype }  (** [Get/Set<T>ArrayRegion] *)
  | Math of { arity : int; single : bool }
      (** a libm function of [arity] floating-point arguments, in single
          ([single]) or double precision *)

(** What a call does to taint, for the static analyzer.  [ctrl] below is
    the control taint at the call; r0-r3 are the argument registers. *)
type effect =
  | Sink of string
      (** a native-context sink (Table VII's [*]), reported under this
          name by both analyses: r0-r3, library memory and [ctrl] leak *)
  | Clean  (** returns a fresh handle or status: only [ctrl] *)
  | Returns_arg of int  (** returns that argument's taint *)
  | Stores_args  (** may store r0-r3 into library memory, and returns them *)
  | Opaque
      (** as [Stores_args], and may also return library memory: what the
          analyzer assumes of a call it cannot resolve *)
  | Class_of_cstring  (** [FindClass(env, "name")]: a class constant *)
  | Method_id
      (** [Get[Static]MethodID(env, cls, "name", sig)]: a method-ID
          constant from the class in r1 and the C string in r2 *)
  | Upcall  (** [Call*Method(env, obj, mid, ...)]: enters the Java method in r2 *)
  | String_of_chars  (** [New[String|StringUTF](env, chars)]: r1 and its pointee *)

type row = { name : string; lib : lib; group : group; shape : shape; effect : effect }

val syslib : lib -> effect -> string -> row
(** A libc or libm row outside any family. *)

val functions : row list
(** libdvm's 211 functions in mount order (which fixes their addresses).
    The [Call<T>Method{,V,A}] families of Table II are expanded over all
    ten return types. *)

val group_of : string -> group option
(** Lookup by libdvm function name. *)
