(* sweep-quick: [transfusion figures --quick], a fresh process per
   sweep, on the default domain pool. *)

open Common

let sweep () = Proc.run ~tmp:(Lazy.force tmp) [ "figures"; "--quick" ]

let quick o r =
  (* Set-up makes the reference every sweep is checked against: a
     sequential sweep, under TRANSFUSION_JOBS=1. *)
  let setup_s, seq_out =
    timed_setups 3 (fun _ ->
        let status, out, _ =
          Proc.run ~extra_env:[ "TRANSFUSION_JOBS=1" ] ~tmp:(Lazy.force tmp) [ "figures"; "--quick" ]
        in
        count r ~attempted:1 ~failed:(if status = 0 then 0 else 1);
        check (status = 0) "figures --quick exited %d under TRANSFUSION_JOBS=1" status;
        out)
  in
  let t_end = Unix.gettimeofday () +. o.seconds in
  let rec loop walls rsses =
    if Unix.gettimeofday () >= t_end && List.length walls >= 3 then (walls, rsses)
    else begin
      let t0 = Unix.gettimeofday () in
      let status, out, rss = sweep () in
      let wall = Unix.gettimeofday () -. t0 in
      count r ~attempted:1 ~failed:(if status = 0 then 0 else 1);
      check (status = 0) "figures --quick exited %d" status;
      check (String.equal out seq_out) "figures --quick differs from the TRANSFUSION_JOBS=1 sweep";
      loop (wall :: walls) (float_of_int rss :: rsses)
    end
  in
  let walls, rsses = loop [] [] in
  let n = List.length walls in
  (* The tail is the nearest-rank p90 of about ten sweeps: the
     second-slowest, so one stall of the host does not set it. *)
  let sweep_s = Stat.median walls and p90 = Stat.quantile walls 0.9 in
  let rss = mb (Stat.median rsses) in
  figure "setup_s" setup_s "s" 3;
  figure "sweep_s" sweep_s "s" n;
  figure "sweep_p90_s" p90 "s" n;
  figure "sweep_rss_mb" rss "MB" n;
  metric r "setup_s" setup_s "s";
  metric r "ops_per_s" (1. /. sweep_s) "1/s";
  metric r "p50_us" (sweep_s *. 1e6) "us";
  metric r "tail_us" (p90 *. 1e6) "us";
  metric r "rss_mb" rss "MB"
