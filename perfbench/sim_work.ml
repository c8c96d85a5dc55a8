(* simulate-steady: the continuous-batching engine of lib/serving on
   bursty edge/BERT traces offered at 0.9x its estimated service rate,
   so the queue grows deep.  A run cycles through several traces drawn
   from the seed, so no single burst pattern sets the figures. *)

open Common
module S = Tf_serving

let arch = Tf_arch.Presets.edge
let model = Tf_workloads.Presets.bert
let classes = S.Traffic.default_classes
let capacity = 16
let n_requests = 500
let n_traces = 8

type env = {
  costs : S.Costs.t;
  traces : S.Traffic.t array;
  references : string array;  (** each trace's first report, rendered *)
}

let render costs report = Tf_experiments.Export.Json.to_line (S.Simulator.to_json ~costs report)

let simulate costs trace = S.Simulator.run ~capacity ~costs ~policy:S.Policy.continuous trace

let check_report env i report =
  let n = List.length report.S.Simulator.completed + List.length report.S.Simulator.unfinished in
  check (n = n_requests) "simulate: %d completed + unfinished for %d requests" n n_requests;
  check (String.equal (render env.costs report) env.references.(i)) "simulate: report differs between repetitions"

(* Fresh shape costs, warmed for every class; the traces; and one
   untimed run of each, which warms the engine's KV-feasibility memo
   and gives the reference report. *)
let setup ?(sp = no_span) seed =
  Tf_experiments.Exp_common.reset_cache ();
  let costs = S.Costs.create ~strategy:Transfusion.Strategies.Transfusion arch model in
  sp.span "serving.costs.warm" (fun () ->
      List.iter (fun c -> ignore (S.Costs.costs costs ~cls:c : S.Costs.per_request)) classes);
  let _, _, computes = S.Costs.stats costs in
  check (computes = List.length classes) "simulate: %d cost computations for %d classes" computes
    (List.length classes);
  let rate = 0.9 *. S.Exp_serving.service_rate ~costs ~classes ~capacity in
  let traces =
    Array.init n_traces (fun i ->
        sp.span "serving.traffic.generate" (fun () ->
            S.Traffic.generate ~classes ~seed:((seed * n_traces) + i) ~rate_qps:rate ~n:n_requests
              (S.Traffic.Bursty { mean_burst = 8; boost = 8. })))
  in
  { costs; traces; references = Array.map (fun t -> render costs (simulate costs t)) traces }

(* Simulate the traces round-robin for [seconds], in whole cycles
   through the traces: wall time of each run, newest first. *)
let measure ?(sp = no_span) ~seconds env =
  let t_end = Unix.gettimeofday () +. seconds in
  let rec loop i walls =
    if Unix.gettimeofday () >= t_end && i mod n_traces = 0 && i > 0 then walls
    else begin
      let k = i mod n_traces in
      let t0 = Unix.gettimeofday () in
      let report = sp.span "serving.simulator.run" (fun () -> simulate env.costs env.traces.(k)) in
      let wall = Unix.gettimeofday () -. t0 in
      sp.span "perfbench.check" (fun () -> check_report env k report);
      loop (i + 1) (wall :: walls)
    end
  in
  loop 0 []

(* This process's peak RSS in bytes, read from the process.max_rss_bytes
   gauge; the registry is switched on just for the sample. *)
let peak_rss_bytes () =
  let was = Tf_obs.enabled () in
  Tf_obs.set_enabled true;
  Tf_obs.Process.register ();
  Tf_obs.Process.sample ();
  Tf_obs.set_enabled was;
  match Tf_obs.find (Tf_obs.snapshot ()) "process.max_rss_bytes" with
  | Some (Tf_obs.Gauge_v bytes) -> bytes
  | _ -> failwith "process.max_rss_bytes is not registered"

(* The simulated-request rate of each cycle through the traces. *)
let cycle_rates walls =
  let a = Array.of_list walls in
  List.init (Array.length a / n_traces) (fun c ->
      float_of_int (n_traces * n_requests) /. Array.fold_left ( +. ) 0. (Array.sub a (c * n_traces) n_traces))

let steady o r =
  let setup_s, env = timed_setups 3 (fun _ -> setup o.seed) in
  let walls = measure ~seconds:o.seconds env in
  let n = List.length walls in
  count r ~attempted:(n * n_requests) ~failed:0;
  (* The median cycle's rate: a slow phase of the host moves a few
     cycles, not the run's figure. *)
  let sim_rps = Stat.median (cycle_rates walls) in
  (* The tail is a fixed p90: a run holds 400 to 1500 simulations,
     depending on the host's speed, and the highest percentile with ten
     samples beyond it would switch between p90 and p99 on that. *)
  let p50 = Stat.median walls and p90 = Stat.quantile walls 0.9 in
  let rss = mb (peak_rss_bytes ()) in
  figure "setup_s" setup_s "s" 3;
  figure "sim_rps" sim_rps "1/s" n;
  figure "sim_run_p50_ms" (p50 *. 1e3) "ms" n;
  figure "sim_run_p90_ms" (p90 *. 1e3) "ms" n;
  figure "rss_mb" rss "MB" 1;
  metric r "setup_s" setup_s "s";
  metric r "ops_per_s" sim_rps "1/s";
  metric r "p50_us" (p50 *. 1e6) "us";
  metric r "tail_us" (p90 *. 1e6) "us";
  metric r "rss_mb" rss "MB"
