(* How fast each core is at the moment.  The benchmark's machine gives it
   a few vCPUs of a shared host, and each vCPU is slowed on its own, for
   seconds to minutes at a time, when the host runs another tenant's
   thread beside it (see NOTES.md).  [probe] times a fixed loop of the
   benchmark's own code, so work done while a core was slowed can be told
   apart without looking at the program's own times.  Pinning is always
   undone before returning: threads created later (the domains of
   [Pool.run]) inherit the calling thread's mask. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_cpus : int array -> bool = "perfbench_set_cpus"

(* the allowed cores; none when there is only one, or when the kernel
   refuses to set the mask *)
let cores =
  lazy
    (let cs = allowed_cpus () in
     if Array.length cs > 1 && set_cpus cs then cs
     else begin
       Bench.log "probing the core the kernel picks (%d allowed)" (Array.length cs);
       [||]
     end)

let pin_to cs = Bench.check (set_cpus cs) "cannot set the CPU affinity mask"

(* back to every allowed core *)
let release () = match Lazy.force cores with [||] -> () | cs -> pin_to cs

(* A fixed integer loop over a small table: loads, stores and a
   data-dependent branch, the kind of work a slowed vCPU does slowest.
   About 0.25 ms on an undisturbed core of the defining machine, and
   1.5-2x that on a slowed one. *)
let table = Array.make 4096 1

let probe () =
  let t0 = Bench.now () in
  let x = ref 0 in
  for k = 0 to 200_000 do
    let j = (k * 7919) land 4095 in
    x := !x + table.(j);
    if !x land 1 = 0 then table.(j) <- !x land 7
  done;
  ignore (Sys.opaque_identity !x);
  Bench.now () -. t0

(* every allowed core's probe reading, the calling thread left pinned to
   the last core *)
let probe_each () =
  match Lazy.force cores with
  | [||] -> [| probe () |]
  | cs -> Array.map (fun c -> pin_to [| c |]; probe ()) cs

(* [f] pinned to the core that probes fastest just before it, with the
   slower of the readings on either side of it, so a core slowed at
   either end counts as slowed *)
let probed f =
  let readings = probe_each () in
  let best = ref 0 in
  Array.iteri (fun i r -> if r < readings.(!best) then best := i) readings;
  (match Lazy.force cores with
   | [||] -> ()
   | cs -> if !best <> Array.length cs - 1 then pin_to [| cs.(!best) |]);
  let v = f () in
  let after = probe () in
  release ();
  (v, Float.max readings.(!best) after)
