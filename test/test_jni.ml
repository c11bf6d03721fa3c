(* JNI primitives: indirect references, function taxonomy. *)

module Indirect_ref = Ndroid_jni.Indirect_ref
module Jni_names = Ndroid_jni.Jni_names

let test_iref_basics () =
  let t = Indirect_ref.create () in
  let r1 = Indirect_ref.add t ~obj_id:10 in
  let r2 = Indirect_ref.add t ~obj_id:20 in
  Alcotest.(check bool) "distinct" true (r1 <> r2);
  Alcotest.(check (option int)) "resolve r1" (Some 10) (Indirect_ref.resolve t r1);
  Alcotest.(check (option int)) "resolve r2" (Some 20) (Indirect_ref.resolve t r2);
  Alcotest.(check int) "count" 2 (Indirect_ref.count t)

let test_iref_reuse () =
  let t = Indirect_ref.create () in
  let r1 = Indirect_ref.add t ~obj_id:10 in
  let r1' = Indirect_ref.add t ~obj_id:10 in
  Alcotest.(check int) "same ref for same object" r1 r1'

let test_iref_delete () =
  let t = Indirect_ref.create () in
  let r = Indirect_ref.add t ~obj_id:7 in
  Indirect_ref.delete t r;
  Alcotest.(check (option int)) "stale after delete" None (Indirect_ref.resolve t r);
  Alcotest.(check (option int)) "reverse gone" None (Indirect_ref.iref_of_obj t 7)

let test_iref_shape () =
  let t = Indirect_ref.create () in
  let r = Indirect_ref.add t ~obj_id:3 in
  Alcotest.(check bool) "looks like an iref" true (Indirect_ref.is_iref r);
  Alcotest.(check bool) "high bit set" true (r land 0x80000000 <> 0);
  Alcotest.(check bool) "plain address is not" false (Indirect_ref.is_iref 0x41001000)

let prop_iref_unique =
  QCheck.Test.make ~name:"irefs are unique and resolvable" ~count:50
    QCheck.(int_bound 200)
    (fun n ->
      let t = Indirect_ref.create () in
      let refs = List.init (n + 1) (fun i -> Indirect_ref.add t ~obj_id:i) in
      let sorted = List.sort_uniq compare refs in
      List.length sorted = n + 1
      && List.for_all2
           (fun i r -> Indirect_ref.resolve t r = Some i)
           (List.init (n + 1) Fun.id) refs)

let test_function_groups () =
  Alcotest.(check bool) "dvmCallJNIMethod is entry" true
    (Jni_names.group_of "dvmCallJNIMethod" = Some Jni_names.Jni_entry);
  Alcotest.(check bool) "CallVoidMethodA is exit" true
    (Jni_names.group_of "CallVoidMethodA" = Some Jni_names.Jni_exit);
  Alcotest.(check bool) "NewStringUTF creates" true
    (Jni_names.group_of "NewStringUTF" = Some Jni_names.Object_creation);
  Alcotest.(check bool) "SetIntField is field access" true
    (Jni_names.group_of "SetIntField" = Some Jni_names.Field_access);
  Alcotest.(check bool) "ThrowNew is exception" true
    (Jni_names.group_of "ThrowNew" = Some Jni_names.Exception)

let test_call_method_families_expand () =
  (* Table II: 9 families x 10 types = 90 wrappers *)
  let wrappers =
    List.filter_map
      (fun (r : Jni_names.row) ->
        match r.Jni_names.shape with
        | Jni_names.Call_method { dispatch; style; _ }
          when r.Jni_names.group = Jni_names.Jni_exit ->
          Some (dispatch, style)
        | _ -> None)
      Jni_names.functions
  in
  Alcotest.(check int) "90 Call wrappers" 90 (List.length wrappers);
  Alcotest.(check int) "9 families" 9 (List.length (List.sort_uniq compare wrappers))

let test_field_table_expand () =
  (* Table IV over Object + 8 primitives, get/set, static/instance = 36 *)
  let fields =
    List.filter
      (fun (r : Jni_names.row) -> r.Jni_names.group = Jni_names.Field_access)
      Jni_names.functions
  in
  Alcotest.(check int) "36 field accessors" 36 (List.length fields)

let suite =
  [ Alcotest.test_case "iref basics" `Quick test_iref_basics;
    Alcotest.test_case "iref reuse" `Quick test_iref_reuse;
    Alcotest.test_case "iref delete" `Quick test_iref_delete;
    Alcotest.test_case "iref shape" `Quick test_iref_shape;
    Alcotest.test_case "function groups" `Quick test_function_groups;
    Alcotest.test_case "Table II expansion" `Quick test_call_method_families_expand;
    Alcotest.test_case "Table IV expansion" `Quick test_field_table_expand;
    QCheck_alcotest.to_alcotest prop_iref_unique ]
