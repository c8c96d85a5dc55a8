(* What every workload shares: options, the report it builds, output
   checks, and the scratch directory inside the checkout. *)

type opts = { seed : int; seconds : float; trace : bool }

exception Check_failed of string

let check cond fmt = Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* One workload run's outcome: the metrics it reports (name, value,
   unit) and how many operations it attempted and saw fail. *)
type report = {
  mutable metrics : (string * float * string) list;
  mutable attempted : int;
  mutable failed : int;
}

let new_report () = { metrics = []; attempted = 0; failed = 0 }

let metric r name value unit = r.metrics <- (name, value, unit) :: r.metrics

(* A figure for the human-readable log, under its workload-specific
   name (hot_rps, cold_p50_ms, ...), with its unit and sample count. *)
let figure name value unit n = log "  %-30s %16.4f %-6s n=%d" name value unit n

let count r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let ratio a b = if b > 0. then a /. b else 0.

(* Scratch space for sockets, logs and cache directories: relative to
   the checkout root (socket paths must stay short), removed on exit. *)
let out_dir = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let tmp =
  lazy
    (if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let dir = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
     rm_rf dir;
     Sys.mkdir dir 0o755;
     (* Children first: a daemon still running holds files in [dir]. *)
     at_exit (fun () ->
         Proc.kill_all ();
         rm_rf dir);
     dir)

let tmp_path name = Filename.concat (Lazy.force tmp) name

(* Run [f] [n] times, timing each; every result but the last is handed
   to [teardown].  Set-up time is the median of the [n] timings. *)
let timed_setups ?(teardown = ignore) n f =
  let rec go i times =
    let t0 = Unix.gettimeofday () in
    let x = f i in
    let dt = Unix.gettimeofday () -. t0 in
    if i + 1 = n then (Stat.median (dt :: times), x)
    else begin
      teardown x;
      go (i + 1) (dt :: times)
    end
  in
  go 0 []

let mb bytes = bytes /. 1048576.

(* How a workload wraps the steps a traced run times: not at all, or
   in a Tf_obs trace span. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }
let tf_span = { span = (fun name f -> Tf_obs.Trace.with_span ~cat:"perfbench" name f) }
