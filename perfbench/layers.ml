(* The per-layer metrics of a traced run, with their units.  Every
   traced run reports all of them; a layer a workload does not reach
   reads 0 there.  README.md says which end-to-end metric each one
   should move, on which workload. *)

let figures = [ "fig8a"; "fig8b"; "fig9a"; "fig9b"; "fig10a"; "fig10b"; "fig11"; "fig12a"; "fig12b"; "fig13"; "headline" ]

let all =
  [
    ("serve.rtt_us", "us");
    ("serve.handle_us", "us");
    ("serve.wire_us", "us");
    ("serve.protocol.parse_us", "us");
    ("serve.access_log.record_us", "us");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.cache.disk_stores", "count");
    ("serve.cache.store_ms", "ms");
    ("serve.api.render_us", "us");
    ("serve.wait_us", "us");
    ("obs.gc.alloc_words_per_req", "words");
    ("obs.gc.minor_per_kreq", "count");
    ("exp_common.evaluate_ms", "ms");
    ("exp_common.verify_ms", "ms");
    ("exp_common.memo_hit_ratio", "ratio");
  ]
  @ List.map (fun f -> ("experiments.figure_s." ^ f, "s")) figures
  @ [
      ("analysis.certify_ms", "ms");
      ("strategies.evaluate_ms", "ms");
      ("strategies.slice_hit_ratio", "ratio");
      ("tileseek.search_ms", "ms");
      ("tileseek.cost_memo_hit_ratio", "ratio");
      ("mcts.rollouts", "count");
      ("mcts.transposition_hit_ratio", "ratio");
      ("dpipe.schedule_ms", "ms");
      ("dpipe.calls", "count");
      ("dpipe.evaluated", "count");
      ("dpipe.prune_ratio", "ratio");
      ("decode.evaluate_ms", "ms");
      ("costmodel.latency_evals", "count");
      ("costmodel.energy_evals", "count");
      ("parallel.utilization", "ratio");
      ("parallel.seq_fallbacks", "count");
      ("serving.engine_us_per_req", "us");
      ("serving.steps_per_req", "count");
      ("serving.preemptions", "count");
      ("serving.queue_depth_mean", "count");
      ("serving.mean_batch", "count");
      ("serving.costs.computes", "count");
      ("serving.traffic.generate_ms", "ms");
      ("loadgen.late_p99_us", "us");
    ]
  @ List.map (fun l -> ("ledger." ^ l ^ "_ms", "ms")) Spans.layers
  @ [ ("ledger.wall_ms", "ms"); ("unattributed_ms", "ms"); ("trace_overhead", "ratio") ]

(* Report every per-layer metric, taking measured values from [values]
   and 0 for the layers this workload does not reach. *)
let emit r values =
  List.iter
    (fun (name, unit) ->
      Common.metric r name (Option.value ~default:0. (List.assoc_opt name values)) unit)
    all

(* Ledger entries as per-layer values. *)
let of_ledger (per_layer, wall_ms, unattributed_ms) =
  ("ledger.wall_ms", wall_ms)
  :: ("unattributed_ms", unattributed_ms)
  :: List.map (fun (l, ms) -> ("ledger." ^ l ^ "_ms", ms)) per_layer

(* The search-stack counters every search-running workload reports,
   from registry deltas [d], per operation where a count. *)
let search_counters d ~ops =
  let per x = Common.ratio x ops in
  [
    ("strategies.slice_hit_ratio",
      Common.ratio (d "strategies.eval_slice_hits_total")
        (d "strategies.eval_slice_hits_total" +. d "strategies.eval_slice_builds_total"));
    ("tileseek.cost_memo_hit_ratio",
      Common.ratio (d "tileseek.cost_memo_hits_total")
        (d "tileseek.cost_memo_hits_total" +. d "tileseek.cost_memo_misses_total"));
    ("mcts.rollouts", per (d "mcts.rollouts_total"));
    ("mcts.transposition_hit_ratio",
      Common.ratio (d "mcts.transposition_hits_total")
        (d "mcts.transposition_hits_total" +. d "mcts.transposition_misses_total"));
    ("dpipe.calls", per (d "dpipe.schedules_total"));
    ("dpipe.evaluated", per (d "dpipe.evaluated_total"));
    ("dpipe.prune_ratio", Common.ratio (d "dpipe.pruned_total") (d "dpipe.candidates_total"));
    ("costmodel.latency_evals", per (d "costmodel.latency_evaluations_total"));
    ("costmodel.energy_evals", per (d "costmodel.energy_evaluations_total"));
    ("parallel.seq_fallbacks", d "parallel.seq_fallbacks_total");
    ("exp_common.memo_hit_ratio",
      Common.ratio (d "memo.exp_common.summary.hits_total")
        (d "memo.exp_common.summary.hits_total" +. d "memo.exp_common.summary.misses_total"));
  ]
