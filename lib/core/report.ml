module Taint = Ndroid_taint.Taint
module A = Ndroid_android
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json

(* The unified per-app report: same shape, same canonical codec as the
   static analyzer's output (the old hand-rolled printer is gone). *)
let to_report ?(app_name = "app") nd =
  let stats = Ndroid.stats nd in
  { Verdict.r_app = app_name;
    r_analysis = "dynamic";
    r_verdict = Ndroid.verdict nd;
    r_meta =
      [ ("source_policies", Json.Int stats.Ndroid.source_policies);
        ("policies_applied", Json.Int stats.Ndroid.policies_applied);
        ("traced_instructions", Json.Int stats.Ndroid.traced_instructions);
        ("summaries_applied", Json.Int stats.Ndroid.summaries_applied);
        ("sink_checks", Json.Int stats.Ndroid.sink_checks) ] }

let generate ?(app_name = "app") ?(transmissions = []) ?(file_writes = []) nd =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let leaks = Ndroid.leaks nd in
  let tainted_leaks =
    List.filter (fun l -> Taint.is_tainted l.A.Sink_monitor.taint) leaks
  in
  line "==============================================================";
  line "NDroid analysis report: %s" app_name;
  line "==============================================================";
  line "";
  (match Ndroid.verdict nd with
   | Verdict.Clean | Verdict.Crashed _ | Verdict.Timeout ->
     line "VERDICT: no tainted information flow reached a sink"
   | Verdict.Flagged flows ->
     let categories =
       List.sort_uniq compare
         (List.concat_map
            (fun (f : Ndroid_report.Flow.t) ->
              Taint.categories f.Ndroid_report.Flow.f_taint)
            flows)
     in
     line "VERDICT: %d information leak(s) detected" (List.length tainted_leaks);
     line "leaked categories: %s" (String.concat ", " categories));
  line "";
  if tainted_leaks <> [] then begin
    line "-- leaks ----------------------------------------------------";
    List.iteri
      (fun i l ->
        line "%d. sink=%s (%s context)" (i + 1) l.A.Sink_monitor.sink
          (match l.A.Sink_monitor.context with
           | A.Sink_monitor.Java_context -> "Java"
           | A.Sink_monitor.Native_context -> "native");
        line "   taint:   %s"
          (Format.asprintf "%a" Taint.pp_verbose l.A.Sink_monitor.taint);
        line "   dest:    %s" l.A.Sink_monitor.detail;
        line "   payload: %S" l.A.Sink_monitor.data)
      tainted_leaks;
    line ""
  end;
  if transmissions <> [] then begin
    line "-- network traffic ------------------------------------------";
    List.iter
      (fun t ->
        line "   -> %s (%d bytes)" t.A.Network.dest
          (String.length t.A.Network.payload))
      transmissions;
    line ""
  end;
  if file_writes <> [] then begin
    line "-- file writes ----------------------------------------------";
    List.iter (fun w -> line "   -> %s" w.A.Filesystem.w_path) file_writes;
    line ""
  end;
  line "-- engine ----------------------------------------------------";
  line "%s" (Format.asprintf "%a" Ndroid.pp_stats (Ndroid.stats nd));
  line "";
  let log = Ndroid.log nd in
  if log <> [] then begin
    line "-- flow log (%d entries) -------------------------------------"
      (List.length log);
    List.iter (fun l -> line "   %s" l) log
  end;
  Buffer.contents buf

let print ?app_name ?transmissions ?file_writes nd =
  print_string (generate ?app_name ?transmissions ?file_writes nd)
