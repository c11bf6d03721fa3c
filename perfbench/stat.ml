(* The one summary every timing in the benchmark goes through: sample
   count, median, quartiles and the highest percentile that still has at
   least ten samples beyond it, so a tail is never read off the single
   slowest sample. *)

type t = {
  sorted : float array;
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  tail_pct : float;  (* 99.9, 99, 90, 75 or 50; 100 (the max) below 20 samples *)
  tail : float;
  total : float;
}

(* linear interpolation between closest ranks *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* does percentile [p] have at least ten samples beyond it? *)
let resolves n p = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0

let summarize samples =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let tail_pct =
    Option.value ~default:100.0
      (List.find_opt (resolves n) [ 99.9; 99.0; 90.0; 75.0; 50.0 ])
  in
  { sorted;
    n;
    median = quantile sorted 0.5;
    q1 = quantile sorted 0.25;
    q3 = quantile sorted 0.75;
    tail_pct;
    tail = quantile sorted (tail_pct /. 100.0);
    total = Array.fold_left ( +. ) 0.0 sorted }

let at t p = quantile t.sorted (p /. 100.0)

let describe t =
  Printf.sprintf "n=%d median=%.6g q1=%.6g q3=%.6g p%g=%.6g" t.n t.median t.q1
    t.q3 t.tail_pct t.tail
