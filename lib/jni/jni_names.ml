type lib = Libdvm | Libc | Libm

let lib_name = function
  | Libdvm -> "libdvm.so"
  | Libc -> "libc.so"
  | Libm -> "libm.so"

type group =
  | Jni_entry
  | Jni_exit
  | Object_creation
  | Field_access
  | Exception
  | String_ops
  | Array_ops
  | Ref_management
  | Internal
  | Syslib

type jtype = Void | Object | Boolean | Byte | Char | Short | Int | Long | Float | Double

let type_name = function
  | Void -> "Void"
  | Object -> "Object"
  | Boolean -> "Boolean"
  | Byte -> "Byte"
  | Char -> "Char"
  | Short -> "Short"
  | Int -> "Int"
  | Long -> "Long"
  | Float -> "Float"
  | Double -> "Double"

let width = function Long | Double -> 8 | _ -> 4

type dispatch = Virtual | Nonvirtual | Static
type style = Varargs | Va_list | Jvalue_array

type shape =
  | Single
  | Call_method of { dispatch : dispatch; style : style; ret : jtype }
  | Field of { set : bool; static : bool; ty : jtype }
  | New_array of jtype
  | Array_elements of { release : bool; ty : jtype }
  | Array_region of { set : bool; ty : jtype }
  | Math of { arity : int; single : bool }

type effect =
  | Sink of string
  | Clean
  | Returns_arg of int
  | Stores_args
  | Opaque
  | Class_of_cstring
  | Method_id
  | Upcall
  | String_of_chars

type row = { name : string; lib : lib; group : group; shape : shape; effect : effect }

let syslib lib effect name = { name; lib; group = Syslib; shape = Single; effect }
let dvm group effect name = { name; lib = Libdvm; group; shape = Single; effect }
let dvms group names = List.map (dvm group Stores_args) names

let family group effect =
  List.map (fun (name, shape) -> { name; lib = Libdvm; group; shape; effect })

(* The generated families: the only place their names are spelled. *)
let primitives = [ Boolean; Byte; Char; Short; Int; Long; Float; Double ]
let per_primitive f = List.concat_map f primitives

let call_methods =
  List.concat_map
    (fun ret ->
      List.concat_map
        (fun (style, suffix) ->
          List.map
            (fun (dispatch, prefix) ->
              ( "Call" ^ prefix ^ type_name ret ^ "Method" ^ suffix,
                Call_method { dispatch; style; ret } ))
            [ (Virtual, ""); (Nonvirtual, "Nonvirtual"); (Static, "Static") ])
        [ (Varargs, ""); (Va_list, "V"); (Jvalue_array, "A") ])
    (Void :: Object :: primitives)

let fields =
  List.concat_map
    (fun (static, prefix) ->
      List.concat_map
        (fun ty ->
          let tn = prefix ^ type_name ty in
          [ ("Get" ^ tn ^ "Field", Field { set = false; static; ty });
            ("Set" ^ tn ^ "Field", Field { set = true; static; ty }) ])
        (Object :: primitives))
    [ (false, ""); (true, "Static") ]

let new_arrays = per_primitive (fun ty -> [ ("New" ^ type_name ty ^ "Array", New_array ty) ])

let array_elements =
  per_primitive (fun ty ->
      [ ("Get" ^ type_name ty ^ "ArrayElements", Array_elements { release = false; ty });
        ("Release" ^ type_name ty ^ "ArrayElements", Array_elements { release = true; ty }) ])

let array_regions =
  per_primitive (fun ty ->
      [ ("Get" ^ type_name ty ^ "ArrayRegion", Array_region { set = false; ty });
        ("Set" ^ type_name ty ^ "ArrayRegion", Array_region { set = true; ty }) ])

(* Mount order: a function's position fixes its guest address. *)
let functions =
  [ dvm Jni_entry Stores_args "dvmCallJNIMethod" ]
  @ dvms Jni_exit [ "dvmInterpret"; "dvmCallMethod"; "dvmCallMethodV"; "dvmCallMethodA" ]
  @ dvms Internal
      [ "dvmDecodeIndirectRef"; "dvmCreateStringFromCstr";
        "dvmCreateStringFromUnicode"; "dvmAllocObject"; "dvmAllocPrimitiveArray";
        "dvmAllocArrayByClass"; "initException" ]
  @ [ dvm Ref_management Class_of_cstring "FindClass";
      dvm Ref_management Stores_args "GetObjectClass";
      dvm Ref_management Method_id "GetMethodID";
      dvm Ref_management Method_id "GetStaticMethodID";
      dvm Ref_management Stores_args "GetFieldID";
      dvm Ref_management Stores_args "GetStaticFieldID" ]
  @ family Jni_exit Upcall call_methods
  @ dvms Object_creation [ "NewObject"; "NewObjectV"; "NewObjectA" ]
  @ [ dvm Object_creation String_of_chars "NewStringUTF";
      dvm Object_creation String_of_chars "NewString";
      dvm Object_creation Stores_args "NewObjectArray" ]
  @ family Object_creation Stores_args new_arrays
  @ [ dvm String_ops (Returns_arg 1) "GetStringUTFChars";
      dvm String_ops Stores_args "ReleaseStringUTFChars";
      dvm String_ops (Returns_arg 1) "GetStringUTFLength";
      dvm String_ops (Returns_arg 1) "GetStringLength";
      dvm String_ops (Returns_arg 1) "GetStringChars";
      dvm String_ops Stores_args "ReleaseStringChars" ]
  @ dvms Array_ops [ "GetArrayLength"; "GetObjectArrayElement"; "SetObjectArrayElement" ]
  @ family Array_ops Stores_args (array_elements @ array_regions)
  (* [Opaque] rows: no narrower effect is checked for them yet, so they
     keep what an unresolved call gets *)
  @ List.map (dvm String_ops Opaque) [ "GetStringUTFRegion"; "GetStringRegion" ]
  @ family Field_access Stores_args fields
  @ dvms Exception [ "ThrowNew"; "Throw"; "ExceptionOccurred"; "ExceptionClear" ]
  @ List.map (dvm Ref_management Opaque) [ "RegisterNatives"; "UnregisterNatives" ]
  @ dvms Ref_management [ "NewGlobalRef"; "NewLocalRef"; "DeleteGlobalRef"; "DeleteLocalRef" ]

let group_of name =
  List.find_map (fun r -> if r.name = name then Some r.group else None) functions
