(* One canonical list of every bundled scenario app.  The CLI, the bench
   harness and the pipeline used to each rebuild (and slightly disagree
   about) this list; they all share this one now. *)

let all : Harness.app list =
  Cases.all @ Case_studies.all @ Polymorphic.variants @ Sec6_batch.apps
  @ [ Evasion.app; Monkey.gated_app.Monkey.app ]
  |> List.fold_left
       (fun acc a ->
         if List.exists (fun b -> b.Harness.app_name = a.Harness.app_name) acc
         then acc
         else a :: acc)
       []
  |> List.rev

let names = List.map (fun a -> a.Harness.app_name) all

let find name =
  List.find_opt (fun a -> a.Harness.app_name = name) all
