(* Differential tests: random Jbuilder-generated method bodies run through
   the seed reference interpreter ([Interp.invoke_reference]) and the
   pre-linked fast path ([Interp.invoke]) on two fresh, identical VMs.
   Values, taints, heap state, statics, thrown exceptions and the
   bytecodes/invokes counters must all agree, and a third VM with an obs
   ring attached must run the fast path's bytecodes. *)

module Vm = Ndroid_dalvik.Vm
module Interp = Ndroid_dalvik.Interp
module Heap = Ndroid_dalvik.Heap
module Dvalue = Ndroid_dalvik.Dvalue
module B = Ndroid_dalvik.Bytecode
module J = Ndroid_dalvik.Jbuilder
module Classes = Ndroid_dalvik.Classes
module Taint = Ndroid_taint.Taint

let gen_cls = "LGen;"
let sub_cls = "LSub;"
let helper_cls = "LHelper;"

(* Support classes shared by every generated program: a static helper, a
   bounded recursive helper (frame-pool depth), and a virtual method with an
   override in a subclass (inline-cache polymorphism). *)
let support_classes () =
  let add =
    J.method_ ~cls:helper_cls ~name:"add" ~shorty:"III" ~registers:8
      [ J.I (B.Binop (B.Add, 0, 6, 7)); J.I (B.Return 0) ]
  in
  let rec_down =
    (* recurse (arg land 15) times: exercises nested pooled frames *)
    J.method_ ~cls:helper_cls ~name:"recDown" ~shorty:"II" ~registers:8
      [ J.I (B.Binop_lit (B.And, 0, 7, 15l));
        J.Ifz_l (B.Le, 0, "base");
        J.I (B.Binop_lit (B.Sub, 1, 0, 1l));
        J.I (B.Invoke (B.Static, { B.m_class = helper_cls; m_name = "recDown" }, [ 1 ]));
        J.I (B.Move_result 2);
        J.I (B.Binop (B.Add, 3, 0, 2));
        J.I (B.Return 3);
        J.L "base";
        J.I (B.Return 0) ]
  in
  let vget_sub =
    J.method_ ~cls:sub_cls ~name:"vget" ~shorty:"I" ~static:false ~registers:4
      [ J.I (B.Iget (0, 3, { B.f_class = sub_cls; f_name = "g" }));
        J.I (B.Binop_lit (B.Mul, 1, 0, 3l));
        J.I (B.Return 1) ]
  in
  [ J.class_ ~name:helper_cls [ add; rec_down ];
    J.class_ ~name:sub_cls ~super:gen_cls ~fields:[ "h" ] [ vget_sub ] ]

(* ---------------- random method bodies ---------------- *)

(* Straight-line items with forward-only branches (to "end"), so every
   generated body terminates.  Registers 0..5 are locals; the single int
   parameter lands in v7 (8 registers, shorty "II"). *)
let item_gen : J.item QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let any_reg = int_range 0 7 in
  let binop =
    oneofl [ B.Add; B.Sub; B.Mul; B.Div; B.Rem; B.And; B.Or; B.Xor; B.Shl;
             B.Shr; B.Ushr ]
  in
  let unop =
    oneofl [ B.Neg; B.Not; B.Int_to_long; B.Int_to_float; B.Int_to_double;
             B.Long_to_int; B.Float_to_int; B.Double_to_int;
             B.Float_to_double; B.Double_to_float ]
  in
  let cmp = oneofl [ B.Eq; B.Ne; B.Lt; B.Ge; B.Gt; B.Le ] in
  let const_val =
    oneof
      [ map (fun n -> Dvalue.Int (Int32.of_int n)) (int_range (-8) 40);
        map (fun n -> Dvalue.Long (Int64.of_int n)) (int_range (-4) 20);
        map (fun f -> Dvalue.Float f) (oneofl [ 0.0; 1.5; -2.25 ]);
        map (fun f -> Dvalue.Double f) (oneofl [ 0.0; 3.5; -0.125 ]);
        return Dvalue.Null ]
  in
  let fref =
    map
      (fun name -> { B.f_class = gen_cls; f_name = name })
      (oneofl [ "f"; "g" ])
  in
  frequency
    [ (6, map3 (fun op (d, a) b -> J.I (B.Binop (op, d, a, b)))
         binop (pair reg any_reg) any_reg);
      (2, map3 (fun op (d, a) b -> J.I (B.Binop_wide (op, d, a, b)))
         binop (pair reg any_reg) any_reg);
      (1, map3 (fun op (d, a) b -> J.I (B.Binop_float (op, d, a, b)))
         (oneofl [ B.Add; B.Sub; B.Mul; B.Div; B.Rem ]) (pair reg any_reg) any_reg);
      (3, map3 (fun op (d, a) lit -> J.I (B.Binop_lit (op, d, a, lit)))
         binop (pair reg any_reg)
         (map Int32.of_int (int_range (-3) 7)));
      (2, map2 (fun op (d, s) -> J.I (B.Unop (op, d, s))) unop (pair reg any_reg));
      (5, map2 (fun r v -> J.I (B.Const (r, v))) reg const_val);
      (1, map2 (fun r n -> J.I (B.Const_string (r, "s" ^ string_of_int n)))
         reg (int_range 0 5));
      (3, map2 (fun d s -> J.I (B.Move (d, s))) reg any_reg);
      (1, map (fun r -> J.I (B.Move_result r)) reg);
      (2, map3 (fun d a b -> J.I (B.Cmp_long (d, a, b))) reg any_reg any_reg);
      (3, map3 (fun c a b -> J.If_l (c, a, b, "end")) cmp any_reg any_reg);
      (2, map2 (fun c a -> J.Ifz_l (c, a, "end")) cmp any_reg);
      (2, map (fun r -> J.I (B.New_instance (r, gen_cls))) reg);
      (1, map (fun r -> J.I (B.New_instance (r, sub_cls))) reg);
      (2, map2 (fun d n -> J.I (B.New_array (d, n, "I"))) reg any_reg);
      (2, map2 (fun d a -> J.I (B.Array_length (d, a))) reg any_reg);
      (2, map3 (fun v a i -> J.I (B.Aget (v, a, i))) reg any_reg any_reg);
      (2, map3 (fun v a i -> J.I (B.Aput (v, a, i))) any_reg any_reg any_reg);
      (3, map3 (fun v o f -> J.I (B.Iget (v, o, f))) reg any_reg fref);
      (3, map3 (fun v o f -> J.I (B.Iput (v, o, f))) any_reg any_reg fref);
      (2, map (fun v -> J.I (B.Sget (v, { B.f_class = gen_cls; f_name = "s" }))) reg);
      (2, map (fun v -> J.I (B.Sput (v, { B.f_class = gen_cls; f_name = "s" }))) any_reg);
      (3, map2 (fun a b ->
           J.I (B.Invoke (B.Static, { B.m_class = helper_cls; m_name = "add" },
                          [ a; b ])))
         any_reg any_reg);
      (2, map (fun a ->
           J.I (B.Invoke (B.Static, { B.m_class = helper_cls; m_name = "recDown" },
                          [ a ])))
         any_reg);
      (2, map (fun o ->
           J.I (B.Invoke (B.Virtual, { B.m_class = gen_cls; m_name = "vget" },
                          [ o ])))
         any_reg);
      (1, map (fun r -> J.I (B.Throw r)) any_reg);
      (1, map (fun r -> J.I (B.Check_cast (r, gen_cls))) reg);
      (2, map2 (fun d r -> J.I (B.Instance_of (d, r, gen_cls))) reg any_reg);
      (1, map2 (fun r first ->
           J.Packed_switch_l (r, Int32.of_int first, [ "end"; "end" ]))
         any_reg (int_range (-2) 2));
      (1, map (fun r ->
           J.Sparse_switch_l (r, [ (1l, "end"); (7l, "end") ]))
         any_reg) ]

type case = { items : J.item list; handled : bool; arg : int; tainted : bool }

let case_gen =
  let open QCheck.Gen in
  map
    (fun (items, (handled, arg, tainted)) -> { items; handled; arg; tainted })
    (pair
       (list_size (int_range 1 40) item_gen)
       (triple bool (int_range (-40) 1000) bool))

let cmp_str = function
  | B.Eq -> "eq" | B.Ne -> "ne" | B.Lt -> "lt"
  | B.Ge -> "ge" | B.Gt -> "gt" | B.Le -> "le"

let print_case c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "arg=%d tainted=%b handled=%b\n" c.arg c.tainted c.handled);
  List.iter
    (fun item ->
      let line =
        match item with
        | J.I insn -> B.to_string insn
        | J.L l -> l ^ ":"
        | J.If_l (cmp, a, bb, l) ->
          Printf.sprintf "if-%s v%d, v%d -> %s" (cmp_str cmp) a bb l
        | J.Ifz_l (cmp, a, l) ->
          Printf.sprintf "if-%sz v%d -> %s" (cmp_str cmp) a l
        | J.Goto_l l -> "goto " ^ l
        | J.Packed_switch_l (r, first, ls) ->
          Printf.sprintf "packed-switch v%d first=%ld -> %s" r first
            (String.concat "," ls)
        | J.Sparse_switch_l (r, entries) ->
          Printf.sprintf "sparse-switch v%d -> %s" r
            (String.concat ","
               (List.map (fun (k, l) -> Printf.sprintf "%ld:%s" k l) entries))
      in
      Buffer.add_string b ("  " ^ line ^ "\n"))
    c.items;
  Buffer.contents b

(* ---------------- state dumps for comparison ---------------- *)

let taint_str t = Format.asprintf "%a" Taint.pp t

let heap_dump vm =
  let objs = ref [] in
  Heap.iter vm.Vm.heap (fun o -> objs := o :: !objs);
  let objs = List.sort (fun a b -> compare a.Heap.id b.Heap.id) !objs in
  String.concat "\n"
    (List.map
       (fun o ->
         let kind =
           match o.Heap.kind with
           | Heap.String s -> Printf.sprintf "str %S" s
           | Heap.Array { elem_type; elems } ->
             Printf.sprintf "arr %s [%s]" elem_type
               (String.concat ";" (Array.to_list (Array.map Dvalue.to_string elems)))
           | Heap.Instance { cls; values; taints } ->
             Printf.sprintf "obj %s [%s] [%s]" cls
               (String.concat ";" (Array.to_list (Array.map Dvalue.to_string values)))
               (String.concat ";" (Array.to_list (Array.map taint_str taints)))
         in
         Printf.sprintf "#%d %s taint=%s" o.Heap.id kind (taint_str o.Heap.taint))
       objs)

let statics_dump vm =
  let entries =
    Hashtbl.fold
      (fun (c, f) cell acc ->
        let v, t = !cell in
        (Printf.sprintf "%s->%s = %s %s" c f (Dvalue.to_string v) (taint_str t))
        :: acc)
      vm.Vm.statics []
  in
  String.concat "\n" (List.sort compare entries)

let outcome_str vm = function
  | Ok (v, t) -> Printf.sprintf "ret %s taint=%s" (Dvalue.to_string v) (taint_str t)
  | Error (`Thrown ((v, t) : Vm.tval)) ->
    let desc =
      match v with
      | Dvalue.Obj id -> (
        match (Heap.get vm.Vm.heap id).Heap.kind with
        | Heap.Instance { cls; _ } -> Printf.sprintf "obj#%d %s" id cls
        | Heap.String s -> Printf.sprintf "obj#%d str %S" id s
        | Heap.Array _ -> Printf.sprintf "obj#%d arr" id)
      | v -> Dvalue.to_string v
    in
    Printf.sprintf "throw %s taint=%s" desc (taint_str t)
  | Error (`Dvm_error msg) -> "dvm_error " ^ msg
  | Error (`Wrong_arity msg) -> "wrong_arity " ^ msg

(* ---------------- the differential run ---------------- *)

let build_main c =
  let handlers = if c.handled then [ ("begin", "end", "h") ] else [] in
  let items =
    (J.L "begin" :: c.items)
    @ [ J.L "end"; J.I (B.Return 0) ]
    @ (if c.handled then
         [ J.L "h"; J.I (B.Move_exception 1); J.I (B.Return 1) ]
       else [])
  in
  J.method_ ~cls:gen_cls ~name:"main" ~shorty:"II" ~registers:8 ~handlers items

let fresh_vm main ~track =
  let vm = Vm.create () in
  vm.Vm.track_taint <- track;
  let vget =
    J.method_ ~cls:gen_cls ~name:"vget" ~shorty:"I" ~static:false ~registers:4
      [ J.I (B.Iget (0, 3, { B.f_class = gen_cls; f_name = "f" }));
        J.I (B.Return 0) ]
  in
  Vm.define_class vm
    (J.class_ ~name:gen_cls ~fields:[ "f"; "g" ] ~static_fields:[ "s" ]
       [ vget; main ]);
  List.iter (Vm.define_class vm) (support_classes ());
  vm

let run_one interp vm main arg =
  match interp vm main [| arg |] with
  | r -> Ok r
  | exception Vm.Java_throw tv -> Error (`Thrown tv)
  | exception Vm.Dvm_error msg -> Error (`Dvm_error msg)
  | exception Interp.Wrong_arity msg -> Error (`Wrong_arity msg)

let differential ~track c =
  let main = build_main c in
  let taint = if c.tainted then Taint.imei else Taint.clear in
  let arg : Vm.tval = (Dvalue.Int (Int32.of_int c.arg), taint) in
  let vm_ref = fresh_vm main ~track in
  let vm_fast = fresh_vm main ~track in
  let ref_main = Vm.find_method vm_ref gen_cls "main" in
  let fast_main = Vm.find_method vm_fast gen_cls "main" in
  let ro = run_one Interp.invoke_reference vm_ref ref_main arg in
  let fo = run_one Interp.invoke vm_fast fast_main arg in
  let check what a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s differs (track=%b)\nreference: %s\nfast:      %s"
        what track a b
  in
  check "outcome" (outcome_str vm_ref ro) (outcome_str vm_fast fo);
  check "vm.ret"
    (outcome_str vm_ref (Ok vm_ref.Vm.ret))
    (outcome_str vm_fast (Ok vm_fast.Vm.ret));
  check "heap" (heap_dump vm_ref) (heap_dump vm_fast);
  check "statics" (statics_dump vm_ref) (statics_dump vm_fast);
  check "bytecode count"
    (string_of_int vm_ref.Vm.counters.Vm.bytecodes)
    (string_of_int vm_fast.Vm.counters.Vm.bytecodes);
  check "invoke count"
    (string_of_int vm_ref.Vm.counters.Vm.invokes)
    (string_of_int vm_fast.Vm.counters.Vm.invokes);
  (* an attached obs ring with tracing off (`ndroid analyze` without
     --trace) executes exactly what the plain fast path does *)
  let vm_obs = fresh_vm main ~track in
  vm_obs.Vm.obs <- Ndroid_obs.Ring.create ~capacity:4096 ();
  let oo = run_one Interp.invoke vm_obs (Vm.find_method vm_obs gen_cls "main") arg in
  check "outcome (obs ring)" (outcome_str vm_fast fo) (outcome_str vm_obs oo);
  check "bytecode count (obs ring)"
    (string_of_int vm_fast.Vm.counters.Vm.bytecodes)
    (string_of_int vm_obs.Vm.counters.Vm.bytecodes);
  true

let prop_differential_taint_on =
  QCheck.Test.make ~name:"fast path == reference (taint on)" ~count:400
    (QCheck.make ~print:print_case case_gen)
    (differential ~track:true)

let prop_differential_taint_off =
  QCheck.Test.make ~name:"fast path == reference (taint off)" ~count:200
    (QCheck.make ~print:print_case case_gen)
    (differential ~track:false)

let suite =
  [ QCheck_alcotest.to_alcotest prop_differential_taint_on;
    QCheck_alcotest.to_alcotest prop_differential_taint_off ]
