(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (serve-hot, serve-mixed, sweep-quick,
   simulate-steady) on inputs made from the seed, checks the program's
   outputs, logs every figure with its unit and sample count on stderr,
   and prints one JSON object as the last line of stdout: the
   end-to-end metrics with --trace 0, the per-layer metrics of a
   separate traced run with --trace 1.  See README.md. *)

open Common

let workloads =
  [
    ("serve-hot", (Serve_work.hot, Traced.serve_hot));
    ("serve-mixed", (Serve_work.mixed, Traced.serve_mixed));
    ("sweep-quick", (Sweep_work.quick, Traced.sweep_quick));
    ("simulate-steady", (Sim_work.steady, Traced.simulate_steady));
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (serve-hot|serve-mixed|sweep-quick|simulate-steady) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag -> go ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, { seed = int "--seed"; seconds = float_of_int (int "--seconds"); trace })

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct r =
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number value) unit)
      r.metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 r.attempted) r.failed (String.concat "," metrics)

let () =
  let workload, o = parse_args () in
  let e2e, traced = List.assoc workload workloads in
  log "perfbench: %s seed=%d seconds=%.0f trace=%b" workload o.seed o.seconds o.trace;
  let r = new_report () in
  match (if o.trace then traced o r else e2e o r) with
  | () -> print_result ~correct:true r
  | exception e ->
      (match e with
      | Check_failed msg -> log "perfbench: check failed: %s" msg
      | e -> log "perfbench: run failed: %s" (Printexc.to_string e));
      print_result ~correct:false r;
      exit 1
