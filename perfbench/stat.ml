(* Order statistics over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile, q in [0, 1]; nan on no samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of p99/p90/p50 that still has at least ten samples above
   it; with fewer than 20 samples no percentile qualifies and the
   maximum stands in.  Returns the value and its label. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  match List.find_opt (fun (q, _) -> beyond q >= 10) [ (0.99, "p99"); (0.9, "p90"); (0.5, "p50") ] with
  | Some (q, label) -> (quantile_sorted a q, label)
  | None -> ((if n = 0 then Float.nan else a.(n - 1)), "max")

(* Samples stamped in ns, grouped by the whole second of the window
   starting at [lo_ns] they fall in (a trailing partial second is
   dropped). *)
let by_second ~lo_ns ~seconds stamped =
  let slots = Array.make (int_of_float seconds) [] in
  List.iter
    (fun (t, x) ->
      let i = (t - lo_ns) / 1_000_000_000 in
      if i >= 0 && i < Array.length slots then slots.(i) <- x :: slots.(i))
    stamped;
  List.filter (( <> ) []) (Array.to_list slots)
