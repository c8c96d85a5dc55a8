(* The traced runs (--trace 1): per-layer metrics for each workload.

   Each run first repeats the workload untraced for half the time, then
   traced for the other half; [trace_overhead] is the traced wall per
   operation over the untraced one.  The traced half records the
   benchmark's spans around its calls into each layer, merged with the
   program's own Tf_obs spans (the daemon's --trace file, or this
   process's trace buffer), and reduces them to the layer ledger.
   In-process probes time the calls no program span covers.  The merged
   spans are written to .perfbench/trace-<workload>.json. *)

open Common
module Json = Tf_experiments.Export.Json
module Exp_common = Tf_experiments.Exp_common
module Strategies = Transfusion.Strategies

let trace_path workload = Filename.concat out_dir ("trace-" ^ workload ^ ".json")

let write_spans workload linked =
  let path = trace_path workload in
  Spans.write path linked;
  log "  spans written to %s" path

let now_us () = Int64.to_float (Tf_obs.now_ns ()) /. 1e3

(* Median time of one call of [f], in us, over 30 blocks of 100 calls. *)
let per_call_us f =
  let calls = 100 in
  Stat.median
    (List.init 30 (fun _ ->
         let t0 = now_us () in
         for i = 0 to calls - 1 do
           f i
         done;
         (now_us () -. t0) /. float_of_int calls))

(* This process's Tf_obs spans recorded while [f] runs. *)
let traced_in_process ~pid f =
  Tf_obs.set_enabled true;
  Tf_obs.Trace.clear ();
  Tf_obs.Trace.start ();
  let x = Fun.protect ~finally:Tf_obs.Trace.stop f in
  (x, Spans.of_tf_obs ~pid (Tf_obs.Trace.to_json ()))

(* A registry delta reader over this process's snapshots. *)
let registry_delta before after =
  let diff = Tf_obs.Snapshot.diff ~before after in
  fun name ->
    match Tf_obs.find diff name with
    | Some (Tf_obs.Counter_v n) -> float_of_int n
    | Some (Tf_obs.Gauge_v g) -> g
    | Some (Tf_obs.Histogram_v { count; _ }) -> float_of_int count
    | None -> 0.

(* Pool busy time over pool wall time times its domains. *)
let utilization d ~jobs = ratio (d "parallel.busy_ns_total") (d "parallel.wall_ns_total" *. jobs)

let window_of spans =
  match List.find_opt (fun s -> s.Spans.name = "perfbench.window") spans with
  | Some s -> (s.Spans.start_us, s.Spans.end_us)
  | None -> failwith "traced run recorded no window span"

let per_op (per_layer, _, _) ~ops =
  let get l = List.assoc l per_layer in
  [
    ("strategies.evaluate_ms", ratio (get "strategies") ops);
    ("tileseek.search_ms", ratio (get "tileseek") ops);
    ("dpipe.schedule_ms", ratio (get "dpipe") ops);
  ]

let key_point (k : Serve_work.key) =
  ( Option.get (Tf_arch.Presets.by_name k.Serve_work.arch),
    Tf_workloads.Workload.v ~batch:k.Serve_work.batch
      (Option.get (Tf_workloads.Presets.by_name k.Serve_work.model))
      ~seq_len:k.Serve_work.seq )

(* --- serve: the daemon's spans on the client's clock ------------------- *)

(* The daemon's trace is rebased to its own first event.  Each
   closed-loop request's server span sits inside its client span;
   centring it there gives one offset per request, and the median
   offset maps the daemon's timeline onto the client's. *)
let align ~client daemon =
  let by_rid = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.Spans.name <> "client.warm" then Hashtbl.replace by_rid s.Spans.rid s)
    client;
  let offsets =
    List.filter_map
      (fun d ->
        match Hashtbl.find_opt by_rid d.Spans.rid with
        | Some c when String.starts_with ~prefix:"serve." d.Spans.name ->
            let slack = c.Spans.end_us -. c.Spans.start_us -. (d.Spans.end_us -. d.Spans.start_us) in
            Some (c.Spans.start_us +. (slack /. 2.) -. d.Spans.start_us)
        | _ -> None)
      daemon
  in
  let off = Stat.median offsets in
  List.map (Spans.shift off) daemon

let daemon_spans file ~client = align ~client (Spans.of_tf_obs ~pid:2 (Proc.read_file file))

(* In-process probes of the warm path: handle_line on a hit with and
   without an access log, the request parse, and the eval document
   render. *)
let probe_warm_path keys =
  let sample = Array.sub keys 0 (min 4 (Array.length keys)) in
  let n = Array.length sample in
  let lines = Array.mapi (fun i k -> Serve_work.line ~id:(Printf.sprintf "p%d" i) k) sample in
  let plain = Tf_serve.Server.create Tf_serve.Server.default_config in
  let logged =
    Tf_serve.Server.create
      { Tf_serve.Server.default_config with access_log = Some (tmp_path "probe.access.log") }
  in
  Array.iter (fun l -> ignore (Tf_serve.Server.handle_line plain l : string)) lines;
  Array.iter (fun l -> ignore (Tf_serve.Server.handle_line logged l : string)) lines;
  let handle = per_call_us (fun i -> ignore (Tf_serve.Server.handle_line plain lines.(i mod n) : string)) in
  let with_log = per_call_us (fun i -> ignore (Tf_serve.Server.handle_line logged lines.(i mod n) : string)) in
  let parse =
    per_call_us (fun i -> ignore (Tf_serve.Protocol.parse_request lines.(i mod n) : Tf_serve.Protocol.request))
  in
  let points = Array.map key_point sample in
  let render =
    per_call_us (fun i ->
        let arch, w = points.(i mod n) in
        ignore (Json.to_line (Tf_serve.Api.eval_doc arch w Strategies.Transfusion) : string))
  in
  (match Tf_serve.Server.access_log logged with Some log -> Tf_serve.Access_log.close log | None -> ());
  [
    ("serve.handle_us", handle);
    ("serve.access_log.record_us", with_log -. handle);
    ("serve.protocol.parse_us", parse);
    ("serve.api.render_us", render);
  ]

(* In-process probes of the miss path on never-seen keys: Exp_common's
   own time around the search (self), result verification, and the
   cache's miss-and-store cost with the payload already computed. *)
let probe_miss_path keys =
  let points = Array.map key_point keys in
  let n = float_of_int (Array.length keys) in
  let (), spans =
    traced_in_process ~pid:3 (fun () ->
        Array.iter
          (fun (arch, w) ->
            let res =
              tf_span.span "exp_common.evaluate" (fun () -> Exp_common.evaluate arch w Strategies.Transfusion)
            in
            ignore
              (tf_span.span "exp_common.verify" (fun () -> Exp_common.verify_result arch w res)
                : Strategies.result))
          points)
  in
  let linked = Spans.link spans in
  let cache = Tf_serve.Cache.create ~dir:(tmp_path "probe-cache") () in
  let store =
    Array.to_list
      (Array.map
         (fun (arch, w) ->
           let key = Exp_common.cache_key ~tileseek_iterations:200 arch w Strategies.Transfusion in
           let key_json =
             Json.Obj [ ("endpoint", Json.Str "schedule"); ("key", Exp_common.Key.to_json key) ]
           in
           let payload = Json.to_line (Tf_serve.Api.eval_doc arch w Strategies.Transfusion) in
           let t0 = now_us () in
           ignore (Tf_serve.Cache.find_or_compute cache ~key_json (fun () -> payload) : string);
           (now_us () -. t0) /. 1e3)
         points)
  in
  ( [
      ("exp_common.evaluate_ms", Spans.self_total linked "exp_common.evaluate" /. 1e3 /. n);
      ("exp_common.verify_ms", Spans.self_total linked "exp_common.verify" /. 1e3 /. n);
      ("serve.cache.store_ms", Stat.median store);
    ],
    spans )

let gc_per_request d ~requests =
  [
    ("obs.gc.alloc_words_per_req", ratio (d "process.gc.allocated_words_total") requests);
    ("obs.gc.minor_per_kreq", ratio (d "process.gc.minor_collections_total" *. 1000.) requests);
  ]

let daemon_jobs (w : Serve_work.window) =
  Option.value ~default:1. (List.assoc_opt "parallel.pool_jobs" w.Serve_work.after)

(* --- serve-hot --------------------------------------------------------- *)

(* One request in flight per connection, unlike the end-to-end run's
   eight: serve.rtt_us is then one request's socket round trip, not a
   wait in the connection's queue. *)
let serve_hot o r =
  let keys = Serve_work.hot_set o.seed in
  let half = o.seconds /. 2. in
  let s = Serve_work.start ~cache:false keys in
  let u = Serve_work.hot_window ~depth:1 ~seed:o.seed ~seconds:half ~record:false s in
  Serve_work.stop s;
  let trace_file = tmp_path "daemon-trace.json" in
  let s = Serve_work.start ~trace_file ~cache:false keys in
  let h = Serve_work.hot_window ~depth:1 ~seed:o.seed ~seconds:half ~record:true s in
  Serve_work.stop s;
  List.iter Serve_work.check_window [ u.Serve_work.w; h.Serve_work.w ];
  let w = h.Serve_work.w in
  count r ~attempted:(u.Serve_work.w.lr.Loadgen.issued + w.lr.Loadgen.issued) ~failed:0;
  let daemon = daemon_spans trace_file ~client:h.Serve_work.spans in
  let ledger = Spans.ledger ~pid:2 ~tid:0 ~lo:w.lo_us ~hi:w.hi_us daemon in
  write_spans "serve-hot" (Spans.link (h.Serve_work.spans @ daemon));
  let d = Serve_work.delta w.before w.after in
  let requests = float_of_int w.lr.Loadgen.issued in
  let rps (x : Serve_work.hot) = float_of_int x.w.lr.Loadgen.completed /. x.w.lr.Loadgen.elapsed_s in
  let probes = probe_warm_path keys in
  let rtt = Stat.median h.Serve_work.rtt_us in
  let hits = d "memo.serve.schedule.hits_total" and misses = d "memo.serve.schedule.misses_total" in
  Layers.emit r
    ([
       ("serve.rtt_us", rtt);
       ("serve.wire_us", rtt -. List.assoc "serve.handle_us" probes);
       ("serve.cache.hit_ratio", ratio hits (hits +. misses));
       ("serve.cache.disk_stores", d "serve.cache.disk_stores_total");
       ("parallel.utilization", utilization d ~jobs:(daemon_jobs w));
       ("trace_overhead", rps u /. rps h);
     ]
    @ probes @ gc_per_request d ~requests @ Layers.search_counters d ~ops:requests
    @ per_op ledger ~ops:requests @ Layers.of_ledger ledger)

(* --- serve-mixed ------------------------------------------------------- *)

let serve_mixed o r =
  let warm, cold = Serve_work.mixed_keys o.seed in
  let half = o.seconds /. 2. in
  let s = Serve_work.start ~cache:true warm in
  let u = Serve_work.mixed_window ~seed:o.seed ~seconds:half ~record:false s cold in
  Serve_work.stop s;
  let trace_file = tmp_path "daemon-trace.json" in
  let s = Serve_work.start ~trace_file ~cache:true warm in
  let m = Serve_work.mixed_window ~seed:o.seed ~seconds:half ~record:true s cold in
  Serve_work.stop s;
  List.iter Serve_work.check_window [ u.Serve_work.mw; m.Serve_work.mw ];
  let w = m.Serve_work.mw in
  count r ~attempted:(u.Serve_work.mw.lr.Loadgen.issued + w.lr.Loadgen.issued) ~failed:0;
  let daemon = daemon_spans trace_file ~client:m.Serve_work.mspans in
  let ledger = Spans.ledger ~pid:2 ~tid:0 ~lo:w.lo_us ~hi:w.hi_us daemon in
  let d = Serve_work.delta w.before w.after in
  let n_cold = float_of_int (List.length m.Serve_work.cold_ms) in
  let cold_rps (x : Serve_work.mixed) =
    float_of_int (List.length x.cold_ms) /. x.mw.lr.Loadgen.elapsed_s
  in
  let warm_probes = probe_warm_path warm in
  (* Never-seen keys from the far end of the shuffled space. *)
  let fresh = Array.sub cold (Array.length cold - 3) 3 in
  let miss_probes, probe_spans = probe_miss_path fresh in
  write_spans "serve-mixed" (Spans.link (m.Serve_work.mspans @ daemon @ probe_spans));
  let late_us = List.map (fun ns -> float_of_int ns /. 1e3) w.lr.Loadgen.late_ns in
  let cold_misses = d "memo.serve.schedule.misses_total" in
  Layers.emit r
    ([
       ("serve.cache.hit_ratio", ratio (n_cold -. cold_misses) n_cold);
       ("serve.cache.disk_stores", d "serve.cache.disk_stores_total");
       ("serve.wait_us", Stat.median m.Serve_work.warm_us -. List.assoc "serve.handle_us" warm_probes);
       ("loadgen.late_p99_us", Stat.quantile late_us 0.99);
       ("parallel.utilization", utilization d ~jobs:(daemon_jobs w));
       ("trace_overhead", cold_rps u /. cold_rps m);
     ]
    @ List.filter (fun (k, _) -> k = "serve.handle_us" || k = "serve.api.render_us") warm_probes
    @ miss_probes
    @ gc_per_request d ~requests:(float_of_int w.lr.Loadgen.issued)
    @ Layers.search_counters d ~ops:n_cold @ per_op ledger ~ops:n_cold @ Layers.of_ledger ledger)

(* --- sweep-quick -------------------------------------------------------- *)

(* The figure computations of [transfusion figures --quick], replayed
   in process through the same public entry points, after certifying
   the quick sequence band that fig 8 certifies first. *)
let replay (sp : spanner) =
  let module E = Tf_experiments in
  let cloud = Tf_arch.Presets.cloud and llama3 = Tf_workloads.Presets.llama3 in
  let archs = [ cloud; Tf_arch.Presets.edge ] in
  Exp_common.reset_cache ();
  sp.span "analysis.certify" (fun () ->
      Exp_common.certify_seq_band archs llama3 ~seqs:(List.map snd (Exp_common.seq_sweep ~quick:true)));
  let fig name f = sp.span ("experiments.figure." ^ name) (fun () -> ignore (f ())) in
  fig "fig8a" (fun () -> E.Fig8_speedup.scaling ~quick:true archs llama3);
  fig "fig8b" (fun () -> E.Fig8_speedup.model_wise cloud);
  fig "fig9a" (fun () -> E.Fig9_pe_size.scaling ~quick:true llama3);
  fig "fig9b" (fun () -> E.Fig9_pe_size.model_wise ());
  fig "fig10a" (fun () -> E.Fig10_utilization.scaling ~quick:true cloud llama3);
  fig "fig10b" (fun () -> E.Fig10_utilization.model_wise cloud);
  fig "fig11" (fun () -> E.Fig11_contribution.scaling ~quick:true archs llama3);
  fig "fig12a" (fun () -> E.Fig12_energy.scaling ~quick:true archs llama3);
  fig "fig12b" (fun () -> E.Fig12_energy.model_wise cloud);
  fig "fig13" (fun () -> E.Fig13_breakdown.scaling ~quick:true archs llama3);
  fig "headline" (fun () -> List.map (fun a -> E.Headline.compute ~quick:true a) archs)

let sweep_quick o r =
  (* The traced replay runs first, as a fresh [figures --quick] process
     would: certification is memoised for the life of the process, so
     later replays find it done.  Untraced replays fill the other half
     of the time; the overhead compares the figure work alone. *)
  let before = Tf_obs.snapshot () in
  let (), spans = traced_in_process ~pid:1 (fun () -> tf_span.span "perfbench.window" (fun () -> replay tf_span)) in
  let d = registry_delta before (Tf_obs.snapshot ()) in
  Tf_obs.set_enabled false;
  let t_end = Unix.gettimeofday () +. (o.seconds /. 2.) in
  let rec untraced walls =
    if Unix.gettimeofday () >= t_end && walls <> [] then walls
    else begin
      let t0 = Unix.gettimeofday () in
      replay no_span;
      untraced ((Unix.gettimeofday () -. t0) :: walls)
    end
  in
  let walls_u = untraced [] in
  let wall_u = Stat.median walls_u in
  count r ~attempted:(1 + List.length walls_u) ~failed:0;
  let lo, hi = window_of spans in
  let ledger = Spans.ledger ~pid:1 ~tid:0 ~lo ~hi spans in
  let dur name =
    match List.find_opt (fun s -> s.Spans.name = name) spans with
    | Some s -> s.Spans.end_us -. s.Spans.start_us
    | None -> 0.
  in
  let miss_probes, probe_spans =
    Exp_common.reset_cache ();
    probe_miss_path (Array.sub (Serve_work.shuffled o.seed) 0 3)
  in
  write_spans "sweep-quick" (Spans.link (spans @ probe_spans));
  Layers.emit r
    ([
       ("analysis.certify_ms", dur "analysis.certify" /. 1e3);
       ("parallel.utilization", utilization d ~jobs:(float_of_int (Tf_parallel.jobs ())));
       ("trace_overhead", (hi -. lo -. dur "analysis.certify") /. 1e6 /. wall_u);
     ]
    @ List.map (fun f -> ("experiments.figure_s." ^ f, dur ("experiments.figure." ^ f) /. 1e6)) Layers.figures
    @ List.filter (fun (k, _) -> k <> "serve.cache.store_ms") miss_probes
    @ Layers.search_counters d ~ops:1. @ per_op ledger ~ops:1. @ Layers.of_ledger ledger)

(* --- simulate-steady ---------------------------------------------------- *)

let simulate_steady o r =
  let half = o.seconds /. 2. in
  let env = Sim_work.setup o.seed in
  let walls_u = Sim_work.measure ~seconds:half env in
  let snap = ref [] in
  let (env, walls), spans =
    traced_in_process ~pid:1 (fun () ->
        let env = Sim_work.setup ~sp:tf_span o.seed in
        snap := Tf_obs.snapshot ();
        (env, tf_span.span "perfbench.window" (fun () -> Sim_work.measure ~sp:tf_span ~seconds:half env)))
  in
  let d = registry_delta !snap (Tf_obs.snapshot ()) in
  let runs = float_of_int (List.length walls) in
  let requests = runs *. float_of_int Sim_work.n_requests in
  count r ~attempted:(int_of_float requests + (List.length walls_u * Sim_work.n_requests)) ~failed:0;
  let lo, hi = window_of spans in
  let ledger = Spans.ledger ~pid:1 ~tid:0 ~lo ~hi spans in
  let linked = Spans.link spans in
  write_spans "simulate-steady" linked;
  let _, _, computes = Tf_serving.Costs.stats env.Sim_work.costs in
  let decode_us =
    List.fold_left
      (fun acc s -> if s.Spans.name = "decode.evaluate" then acc +. s.Spans.end_us -. s.Spans.start_us else acc)
      0. spans
  in
  let reports = Array.map (Sim_work.simulate env.Sim_work.costs) env.Sim_work.traces in
  let mean f = Stat.mean (Array.to_list (Array.map f reports)) in
  Layers.emit r
    ([
       ("serving.engine_us_per_req", Spans.self_total linked "serving.simulator.run" /. requests);
       ("serving.steps_per_req", ratio (d "serving.steps_total") requests);
       ("serving.preemptions", ratio (d "serving.preemptions_total") runs);
       ("serving.queue_depth_mean", mean (fun r -> r.Tf_serving.Simulator.queue_depth_mean));
       ("serving.mean_batch", mean (fun r -> r.Tf_serving.Simulator.mean_batch));
       ("serving.costs.computes", float_of_int computes);
       ("serving.traffic.generate_ms", Spans.self_total linked "serving.traffic.generate" /. 1e3);
       ("decode.evaluate_ms", ratio (decode_us /. 1e3) (float_of_int computes));
       ("trace_overhead", Stat.median walls /. Stat.median walls_u);
     ]
    @ Layers.of_ledger ledger)
