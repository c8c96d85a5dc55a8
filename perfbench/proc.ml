(* Child processes of the benchmark: the transfusion CLI built from the
   checkout, the serve daemon it runs, and the blocking request/reply
   calls made on a daemon connection outside the measured window.
   Every child is registered until it has been waited for, so an
   aborted run still stops and reaps everything it started. *)

external wait4 : int -> int * int = "perfbench_wait4"

let cli = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "transfusion_cli.exe"))

let live : int list ref = ref []

let wait pid =
  let status, rss = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  (status, rss)

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter (fun pid -> try ignore (wait pid : int * int) with Failure _ -> ()) !live

let () =
  at_exit kill_all;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ]

(* The environment without TRANSFUSION_JOBS, plus [extra]: children run
   on the default domain pool unless a run asks otherwise. *)
let env extra =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TRANSFUSION_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))
    (Array.of_list extra)

(* Start [cli args] with stdin from an empty file and stdout to
   [stdout_path], both in the scratch directory; stderr goes to ours so
   failures stay visible. *)
let spawn ?(extra_env = []) ~stdout_path args =
  let out = Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let inp = Unix.openfile (Filename.concat (Filename.dirname stdout_path) "empty") [ Unix.O_RDONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close inp)
      (fun () ->
        Unix.create_process_env cli (Array.of_list (cli :: args)) (env extra_env) inp out Unix.stderr)
  in
  live := pid :: !live;
  pid

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [cli args] to completion: (exit status, stdout, peak RSS bytes). *)
let run ?extra_env ~tmp args =
  let path = Filename.concat tmp "stdout" in
  let pid = spawn ?extra_env ~stdout_path:path args in
  let status, rss = wait pid in
  (status, read_file path, rss)

(* --- the serve daemon ------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* Connect, retrying briefly: the socket file exists from bind(2) on,
   a moment before the daemon listens. *)
let connect socket =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception (Unix.Unix_error _ as e) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then raise e;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* Start a daemon on [socket] and wait until it accepts connections. *)
let start_daemon ~socket args =
  let pid = spawn ~stdout_path:(socket ^ ".stdout") ([ "serve"; "--socket"; socket ] @ args) in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec ready () =
    if not (Sys.file_exists socket) then begin
      if Unix.gettimeofday () > deadline then failwith "daemon did not start";
      Unix.sleepf 0.002;
      ready ()
    end
  in
  ready ();
  { pid; socket }

let rbuf = Bytes.create 65536

(* One blocking request/reply on a quiescent connection: the reply is
   read up to its newline and nothing more is outstanding. *)
let call fd line =
  let msg = line ^ "\n" in
  let rec write off =
    if off < String.length msg then
      write (off + Unix.write_substring fd msg off (String.length msg - off))
  in
  write 0;
  let acc = Buffer.create 1024 in
  let rec read () =
    match Unix.read fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
        Buffer.add_subbytes acc rbuf 0 n;
        if Bytes.get rbuf (n - 1) <> '\n' then read ()
  in
  read ();
  let s = Buffer.contents acc in
  String.sub s 0 (String.length s - 1)

module R = Tf_report.Json_read

(* The daemon's registry through its [metrics] op: name -> value, with
   histograms reduced to their count. *)
let metrics fd =
  let doc = R.parse (call fd "{\"op\":\"metrics\"}") in
  match R.member "metrics" (R.member "result" doc) with
  | R.Obj kvs ->
      List.map
        (fun (k, v) ->
          ( k,
            match v with
            | R.Num f -> f
            | R.Obj _ -> R.to_float (R.member "count" v)
            | _ -> Float.nan ))
        kvs
  | _ -> failwith "metrics reply without a metrics object"

(* Ask the daemon to stop and reap it; kill it if it does not go. *)
let stop_daemon d fd =
  (try ignore (call fd "{\"op\":\"shutdown\"}" : string) with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (wait d.pid : int * int)
    | _ -> live := List.filter (( <> ) d.pid) !live
  in
  reap ()
