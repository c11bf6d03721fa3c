(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds and prints, as its last stdout line,
   one JSON object: whether every output matched its oracle, how many
   operations were attempted and failed, and the metrics — the
   end-to-end set with --trace 0, the per-layer set with --trace 1.
   Summaries with sample counts go to stderr; the traced run's spans are
   written to [--spans FILE] when given. *)

module Json = Ndroid_report.Json

(* The metric names and units are BENCHMARK.json's, read from the
   repository root: [section] is "end_to_end" or "per_layer". *)
let declared section =
  let bad why = failwith ("BENCHMARK.json: " ^ why) in
  let ic = open_in_bin "BENCHMARK.json" in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let spec = match Json.of_string text with Ok j -> j | Error e -> bad e in
  let field key m = Option.bind (Json.member key m) Json.str in
  match Option.bind (Json.member section spec) Json.list with
  | None -> bad ("no list " ^ section)
  | Some metrics ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> bad ("a metric in " ^ section ^ " lacks a name or unit"))
      metrics

let workloads =
  [ ("market_triage", Market_triage.run);
    ("cfbench_ndroid", Cfbench_ndroid.run);
    ("serve_mixed", Serve_mixed.run) ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every workload reports every declared metric of its kind; a layer the
   workload does not exercise reports 0, which is the "bypass" side of
   the comparison.  A value set under a name BENCHMARK.json does not
   declare is a failed check, so the two cannot drift apart. *)
let result_line ~end_to_end ~per_layer ~trace =
  Hashtbl.iter
    (fun name _ ->
      Bench.check
        (List.mem_assoc name end_to_end || List.mem_assoc name per_layer)
        (name ^ " is not declared in BENCHMARK.json"))
    Bench.values;
  let table = if trace then per_layer else end_to_end in
  let metric (name, unit_) =
    let v =
      match Hashtbl.find_opt Bench.values name with
      | Some v when Float.is_finite v -> v
      | Some _ ->
        Bench.check false (name ^ " is not a finite number");
        0.0
      | None ->
        (* end-to-end metrics are never absent; layers may sit idle *)
        Bench.check trace (name ^ " was not measured");
        0.0
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_
  in
  let metrics = List.map metric table in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!Bench.failed = 0 && !Bench.failures = 0)
    !Bench.attempted !Bench.failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" and daemon = ref "" and jobs = ref 1 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans");
      ("--scratch", Arg.Set_string Bench.scratch, "DIR for the daemon's socket");
      ("--daemon", Arg.Set_string daemon, "SOCKET serve_mixed's daemon process");
      ("--jobs", Arg.Set_int jobs, "N the daemon's worker domains") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !daemon <> "" then Serve_mixed.daemon_main ~socket:!daemon ~jobs:!jobs
  else
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    let trace = !trace = 1 in
    let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
    run ~seed:!seed ~seconds:!seconds ~trace;
    Bench.setup_report ();
    Bench.set "failed_frac"
      (float_of_int !Bench.failed /. float_of_int (max 1 !Bench.attempted));
    Bench.check (!Bench.attempted > 0) "no operation was attempted";
    if !spans <> "" then Bench.write_spans !spans;
    print_endline (result_line ~end_to_end ~per_layer ~trace)
