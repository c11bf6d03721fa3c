(* Emulator layer: machine host dispatch, events, multilevel hooking,
   icache ablation, OS view. *)

module Machine = Ndroid_emulator.Machine
module Layout = Ndroid_emulator.Layout
module Multilevel = Ndroid_emulator.Multilevel
module Os_view = Ndroid_emulator.Os_view
module Tracer = Ndroid_emulator.Tracer
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu

let test_host_fn_dispatch () =
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  let called = ref 0 in
  Machine.mount_layout m
    (Machine.host_layout
       [ ( "libc.so", "answer", 0x40100100,
           fun () cpu _mem ->
             incr called;
             Cpu.set_reg cpu 0 42 ) ])
    ();
  let r0, _ = Machine.call_native m ~addr:0x40100100 ~args:[ 1; 2 ] () in
  Alcotest.(check int) "result" 42 r0;
  Alcotest.(check int) "called once" 1 !called;
  Alcotest.(check int) "addr lookup" 0x40100100 (Machine.host_fn_addr m "answer")

let test_guest_calls_host () =
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  Machine.mount_layout m
    (Machine.host_layout
       [ ( "libc.so", "add10", 0x40100100,
           fun () cpu _ -> Cpu.set_reg cpu 0 (Cpu.reg cpu 0 + 10) ) ])
    ();
  let prog =
    Asm.assemble
      ~extern:(fun _ -> Some 0x40100100)
      ~base:Layout.app_lib_base
      [ Asm.Label "f";
        Asm.I (Insn.push [ Insn.r4; Insn.lr ]);
        Asm.I (Insn.mov 0 (Insn.Imm 5));
        Asm.Call "add10";
        Asm.Call "add10";
        Asm.I (Insn.pop [ Insn.r4; Insn.pc ]) ]
  in
  Machine.load_program m prog;
  let r0, _ = Machine.call_native m ~addr:(Asm.fn_addr prog "f") ~args:[] () in
  Alcotest.(check int) "5 + 10 + 10" 25 r0

let test_events_sequence () =
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  Machine.mount_layout m
    (Machine.host_layout [ ("libc.so", "noop", 0x40100100, fun () _ _ -> ()) ])
    ();
  let prog =
    Asm.assemble
      ~extern:(fun _ -> Some 0x40100100)
      ~base:Layout.app_lib_base
      [ Asm.I (Insn.push [ Insn.lr ]);
        Asm.Call "noop";
        Asm.I (Insn.pop [ Insn.pc ]) ]
  in
  Machine.load_program m prog;
  let insns = ref 0 and pres = ref 0 and posts = ref 0 and branches = ref 0 in
  Machine.add_insn_hook m (fun _ _ -> incr insns);
  Machine.add_listener m (fun ev ->
      match ev with
      | Machine.Ev_host_pre _ -> incr pres
      | Machine.Ev_host_post _ -> incr posts
      | Machine.Ev_branch _ -> incr branches
      | Machine.Ev_svc _ -> ());
  ignore (Machine.call_native m ~addr:Layout.app_lib_base ~args:[] ());
  (* push + li(4) + blx + pop = 7 guest instructions *)
  Alcotest.(check int) "guest insns" 7 !insns;
  Alcotest.(check int) "host pre" 1 !pres;
  Alcotest.(check int) "host post" 1 !posts;
  Alcotest.(check bool) "branches observed" true (!branches >= 2)

let test_runaway_guard () =
  let m = Machine.create () in
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.Label "spin"; Asm.Br (Insn.AL, "spin") ]
  in
  Machine.load_program m prog;
  Alcotest.(check bool) "runaway raises" true
    (match Machine.call_native m ~fuel:1000 ~addr:Layout.app_lib_base ~args:[] () with
     | exception Machine.Runaway _ -> true
     | _ -> false)

let test_nested_call_native () =
  (* a host function that itself calls back into guest code *)
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.Label "triple";
        Asm.I (Insn.add 0 0 (Insn.Reg_shift_imm (0, Insn.LSL, 1)));
        Asm.I Insn.bx_lr ]
  in
  Machine.mount_layout m
    (Machine.host_layout
       [ ( "libdvm.so", "callback", 0x40000100,
           fun () cpu _ ->
             let r0, _ =
               Machine.call_native m ~addr:(Asm.fn_addr prog "triple")
                 ~args:[ Cpu.reg cpu 0 + 1 ] ()
             in
             Cpu.set_reg cpu 0 r0 ) ])
    ();
  Machine.load_program m prog;
  let outer =
    Asm.assemble
      ~extern:(fun _ -> Some 0x40000100)
      ~base:(Layout.app_lib_base + 0x1000)
      [ Asm.I (Insn.push [ Insn.lr ]);
        Asm.I (Insn.mov 0 (Insn.Imm 6));
        Asm.Call "callback";
        Asm.I (Insn.pop [ Insn.pc ]) ]
  in
  Machine.load_program m outer;
  let r0, _ =
    Machine.call_native m ~addr:(Layout.app_lib_base + 0x1000) ~args:[] ()
  in
  (* (6+1) * 3 = 21 *)
  Alcotest.(check int) "nested result" 21 r0

let test_icache_effective () =
  let m = Machine.create () in
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.I (Insn.mov 0 (Insn.Imm 0));
        Asm.I (Insn.mov 1 (Insn.Imm 100));
        Asm.Label "loop";
        Asm.I (Insn.add 0 0 (Insn.Reg 1));
        Asm.I (Insn.subs 1 1 (Insn.Imm 1));
        Asm.Br (Insn.NE, "loop");
        Asm.I Insn.bx_lr ]
  in
  Machine.load_program m prog;
  ignore (Machine.call_native m ~addr:Layout.app_lib_base ~args:[] ());
  let hits, misses = Machine.icache_stats m in
  Alcotest.(check bool) "hits dominate" true (hits > 10 * misses);
  Alcotest.(check bool) "some misses" true (misses >= 5)

(* ---- multilevel hooking: the Fig. 5 scenario ---- *)

let fig5_chain () =
  let call_void = 0x40001000
  and dvm_call = 0x40002000
  and interp = 0x40003000 in
  let tracker =
    Multilevel.create
      ~chain:
        [ Multilevel.exact call_void; Multilevel.exact dvm_call;
          Multilevel.exact interp ]
      ~in_native:Layout.in_app_lib
  in
  (tracker, call_void, dvm_call, interp)

let test_multilevel_full_chain () =
  let tracker, call_void, dvm_call, interp = fig5_chain () in
  let native = Layout.app_lib_base + 0x100 in
  (* step 1: native code calls CallVoidMethodA — T1 *)
  Alcotest.(check bool) "T1" true
    (Multilevel.observe tracker ~from_:native ~to_:call_void = Some (Multilevel.Enter 0));
  (* step 2: -> dvmCallMethodA — T2 *)
  Alcotest.(check bool) "T2" true
    (Multilevel.observe tracker ~from_:call_void ~to_:dvm_call
     = Some (Multilevel.Enter 1));
  (* step 3: -> dvmInterpret — T3 *)
  Alcotest.(check bool) "T3" true
    (Multilevel.observe tracker ~from_:dvm_call ~to_:interp
     = Some (Multilevel.Enter 2));
  Alcotest.(check int) "at level 3" 3 (Multilevel.level tracker);
  (* step 4: return to dvmCallMethodA (C+4) — T4 *)
  Alcotest.(check bool) "T4" true
    (Multilevel.observe tracker ~from_:interp ~to_:(dvm_call + 4)
     = Some (Multilevel.Leave 2));
  (* step 5: return to CallVoidMethodA — T5 *)
  Alcotest.(check bool) "T5" true
    (Multilevel.observe tracker ~from_:dvm_call ~to_:(call_void + 4)
     = Some (Multilevel.Leave 1));
  (* step 6: return to native — T6 *)
  Alcotest.(check bool) "T6" true
    (Multilevel.observe tracker ~from_:call_void ~to_:(native + 4)
     = Some (Multilevel.Leave 0));
  Alcotest.(check int) "unwound" 0 (Multilevel.level tracker)

let test_multilevel_rejects_framework_origin () =
  let tracker, call_void, dvm_call, interp = fig5_chain () in
  (* the framework itself (not third-party native code) calls dvmInterpret:
     no condition holds, nothing is instrumented *)
  Alcotest.(check bool) "no T for framework call" true
    (Multilevel.observe tracker ~from_:Layout.libdvm_base ~to_:interp = None);
  Alcotest.(check bool) "not even entry" true
    (Multilevel.observe tracker ~from_:Layout.libdvm_base ~to_:call_void = None);
  ignore dvm_call;
  Alcotest.(check int) "still level 0" 0 (Multilevel.level tracker)

let test_multilevel_skips_inner_without_outer () =
  let tracker, _, dvm_call, _ = fig5_chain () in
  (* jumping straight to dvmCallMethodA from native misses T1: ignored *)
  Alcotest.(check bool) "no chain entry at level 1" true
    (Multilevel.observe tracker ~from_:(Layout.app_lib_base + 4) ~to_:dvm_call
     = None)

let test_os_view () =
  let m = Machine.create () in
  let view = Os_view.reconstruct m in
  Alcotest.(check bool) "has processes" true (List.length view.Os_view.processes >= 3);
  Alcotest.(check bool) "finds libc" true
    (match Os_view.find_region view (Layout.libc_base + 100) with
     | Some r -> r.Os_view.r_name = "libc.so"
     | None -> false);
  Alcotest.(check bool) "app region" true
    (match Os_view.find_region view (Layout.app_lib_base + 8) with
     | Some r -> r.Os_view.r_name = "app_native_lib"
     | None -> false);
  Alcotest.(check bool) "unmapped" true
    (Os_view.find_region view 0x00001000 = None)

let test_tracer_filters () =
  let m = Machine.create () in
  Machine.set_host_fn_work m 0;
  let prog =
    Asm.assemble ~base:Layout.app_lib_base
      [ Asm.I (Insn.mov 0 (Insn.Imm 1)); Asm.I Insn.bx_lr ]
  in
  Machine.load_program m prog;
  let seen = ref 0 in
  let t = Tracer.create () in
  Machine.add_insn_hook m (fun addr _ -> if Tracer.admit t addr then incr seen);
  ignore (Machine.call_native m ~addr:Layout.app_lib_base ~args:[] ());
  Alcotest.(check int) "traced" 2 (Tracer.traced t);
  Alcotest.(check int) "handler calls" 2 !seen

let test_layout_regions_disjoint () =
  let regions = Layout.regions in
  List.iteri
    (fun i (n1, b1, s1) ->
      List.iteri
        (fun j (n2, b2, s2) ->
          if i < j then
            let overlap = b1 < b2 + s2 && b2 < b1 + s1 in
            if overlap then Alcotest.failf "%s overlaps %s" n1 n2)
        regions)
    regions

let suite =
  [ Alcotest.test_case "host fn dispatch" `Quick test_host_fn_dispatch;
    Alcotest.test_case "guest calls host" `Quick test_guest_calls_host;
    Alcotest.test_case "event sequence" `Quick test_events_sequence;
    Alcotest.test_case "runaway guard" `Quick test_runaway_guard;
    Alcotest.test_case "nested call_native" `Quick test_nested_call_native;
    Alcotest.test_case "icache effective" `Quick test_icache_effective;
    Alcotest.test_case "multilevel: full Fig.5 chain" `Quick
      test_multilevel_full_chain;
    Alcotest.test_case "multilevel: framework origin rejected" `Quick
      test_multilevel_rejects_framework_origin;
    Alcotest.test_case "multilevel: inner without outer" `Quick
      test_multilevel_skips_inner_without_outer;
    Alcotest.test_case "os view" `Quick test_os_view;
    Alcotest.test_case "tracer filter" `Quick test_tracer_filters;
    Alcotest.test_case "layout regions disjoint" `Quick test_layout_regions_disjoint ]

let test_throw_new_internal_chain () =
  (* ThrowNew's libdvm internals surface as real host events:
     ThrowNew -> initException -> dvmCreateStringFromCstr (Sec. V-B's
     exception group hooks all three) *)
  let device = Ndroid_runtime.Device.create () in
  let machine = Ndroid_runtime.Device.machine device in
  let order = ref [] in
  Machine.add_listener machine (fun ev ->
      match ev with
      | Machine.Ev_host_pre hf -> order := hf.Machine.hf_name :: !order
      | _ -> ());
  let mem = Machine.mem machine in
  Ndroid_arm.Memory.write_cstring mem 0x30000000 "Ljava/lang/SecurityException;";
  Ndroid_arm.Memory.write_cstring mem 0x30000100 "boom";
  let find = Machine.host_fn_addr machine "FindClass" in
  let cls, _ =
    Machine.call_native machine ~addr:find ~args:[ 0; 0x30000000 ] ()
  in
  let throw_new = Machine.host_fn_addr machine "ThrowNew" in
  ignore (Machine.call_native machine ~addr:throw_new ~args:[ 0; cls; 0x30000100 ] ());
  let seq = List.rev !order in
  let rec subsequence needle hay =
    match (needle, hay) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs -> if n = h then subsequence ns hs else subsequence needle hs
  in
  Alcotest.(check bool) "chain order" true
    (subsequence [ "ThrowNew"; "initException"; "dvmCreateStringFromCstr" ] seq)

let suite =
  suite
  @ [ Alcotest.test_case "ThrowNew internal chain events" `Quick
        test_throw_new_internal_chain ]
