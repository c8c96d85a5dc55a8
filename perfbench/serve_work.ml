(* serve-hot and serve-mixed: the [transfusion serve] daemon driven over
   its Unix socket by the single-threaded load generator, on at most
   two connections. *)

open Common
module Json = Tf_experiments.Export.Json
module R = Tf_report.Json_read

(* --- the schedule key space ------------------------------------------ *)

type key = { arch : string; model : string; seq : int; batch : int }

let space =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun model ->
          List.concat_map
            (fun i -> List.map (fun batch -> { arch; model; seq = 512 * i; batch }) [ 1; 2; 4; 8; 16 ])
            (List.init 64 (fun i -> i + 1)))
        [ "BERT"; "TrXL"; "T5"; "XLM"; "Llama3" ])
    [ "cloud"; "edge" ]

(* The key space in a seeded order: a workload takes its working set
   from the front and never-seen keys from behind it. *)
let shuffled seed =
  let a = Array.of_list space in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let line ~id k =
  Printf.sprintf
    "{\"op\":\"schedule\",\"arch\":\"%s\",\"model\":\"%s\",\"seq\":%d,\"batch\":%d,\"strategy\":\"transfusion\",\"id\":\"%s\"}"
    k.arch k.model k.seq k.batch id

(* The payload of a key's first answer, after checking that the reply
   is ok under transfusion.serve/1 and echoes the request. *)
let first_answer k ~id reply =
  match R.parse reply, Tf_serve.Protocol.result_of_line reply with
  | doc, Some payload ->
      let str d f = match R.find f d with Some (R.Str s) -> s | _ -> "" in
      let num d f = match R.find f d with Some (R.Num x) -> int_of_float x | _ -> -1 in
      let res = R.member "result" doc in
      if
        str doc "schema" = Tf_serve.Protocol.schema
        && R.find "ok" doc = Some (R.Bool true)
        && str doc "op" = "schedule"
        && str doc "id" = id
        && str res "schema" = Tf_serve.Api.eval_schema
        && str res "arch" = k.arch
        && str res "model" = k.model
        && num res "seq_len" = k.seq
        && num res "batch" = k.batch
        && str res "strategy" = "transfusion"
      then Ok payload
      else Error reply
  | _, None -> Error reply
  | exception R.Bad_json _ -> Error reply

let expected ~id payload = Tf_serve.Protocol.ok_line ~id:(Json.Str id) ~op:"schedule" payload

let first_bad = ref None

let note_bad what =
  if !first_bad = None then first_bad := Some what;
  false

(* --- a daemon with a pre-warmed working set --------------------------- *)

type served = { d : Proc.daemon; fd : Unix.file_descr; keys : key array; payloads : string array }

let n_daemons = ref 0

let start ?trace_file ~cache keys =
  incr n_daemons;
  let tag = Printf.sprintf "d%d" !n_daemons in
  let args =
    [ "--access-log"; tmp_path (tag ^ ".access.log") ]
    @ (if cache then [ "--cache-dir"; tmp_path (tag ^ ".cache") ] else [])
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let d = Proc.start_daemon ~socket:(tmp_path (tag ^ ".sock")) args in
  let fd = Proc.connect d.Proc.socket in
  let payloads =
    Array.mapi
      (fun i k ->
        let id = Printf.sprintf "s%d" i in
        match first_answer k ~id (Proc.call fd (line ~id k)) with
        | Ok p -> p
        | Error reply -> raise (Check_failed ("bad pre-warm reply: " ^ reply)))
      keys
  in
  { d; fd; keys; payloads }

let stop s = Proc.stop_daemon s.d s.fd

let delta before after name =
  let get m = Option.value ~default:0. (List.assoc_opt name m) in
  get after -. get before

let us ns = float_of_int ns /. 1e3

(* One measured window.  [streams] builds the load from the two
   connections; client spans are kept when [record] is set. *)
type window = {
  lr : Loadgen.result;
  before : (string * float) list;
  after : (string * float) list;
  lo_us : float;
  hi_us : float;
}

let run_window s ~seconds streams =
  let fd1 = Proc.connect s.d.Proc.socket in
  let before = Proc.metrics s.fd in
  let lo_us = us (Loadgen.now_ns ()) in
  let lr = Loadgen.run ~duration_s:seconds (streams s.fd fd1) in
  let hi_us = us (Loadgen.now_ns ()) in
  Unix.close fd1;
  let after = Proc.metrics s.fd in
  { lr; before; after; lo_us; hi_us }

let client_span ~record spans ~tid name (r : Loadgen.reply) =
  if record then
    spans := Spans.make ~rid:r.Loadgen.req.Loadgen.id ~pid:0 ~tid name (us r.Loadgen.due_ns) (us r.Loadgen.recv_ns) :: !spans

(* --- serve-hot -------------------------------------------------------- *)

let hot_set seed = Array.sub (shuffled seed) 0 64

(* Requests each hot connection keeps in flight.  With one, client and
   daemon take turns and both cores idle between them, so the figures
   follow how fast the host wakes them; eight keep the daemon busy, and
   its own work per request sets the rate. *)
let hot_depth = 8

type hot = {
  w : window;
  rtt_us : float list;
  by_second : float list list;  (** round trips of each whole second of the window *)
  spans : Spans.span list;
}

let hot_window ~depth ~seed ~seconds ~record s =
  let rtts = ref [] and stamped = ref [] and spans = ref [] in
  let stream c =
    let st = Random.State.make [| seed; c |] in
    {
      Loadgen.mode = Loadgen.Closed { depth };
      next =
        (fun n ->
          let key = Random.State.int st (Array.length s.keys) in
          let id = Printf.sprintf "h%d.%d" c n in
          { Loadgen.id; key; line = line ~id s.keys.(key) });
      on_reply =
        (fun r ->
          let req = r.Loadgen.req in
          if String.equal r.Loadgen.body (expected ~id:req.Loadgen.id s.payloads.(req.Loadgen.key)) then begin
            let rtt = us (r.Loadgen.recv_ns - r.Loadgen.sent_ns) in
            rtts := rtt :: !rtts;
            stamped := (r.Loadgen.recv_ns, rtt) :: !stamped;
            client_span ~record spans ~tid:c "client.hot" r;
            true
          end
          else note_bad ("hot reply differs from the key's first answer: " ^ r.Loadgen.body));
    }
  in
  let w = run_window s ~seconds (fun fd0 fd1 -> [ (fd0, stream 0); (fd1, stream 1) ]) in
  (* Counter guard: a keying bug would turn hits into searches. *)
  let misses = delta w.before w.after "memo.serve.schedule.misses_total" in
  check (misses = 0.) "serve-hot: %.0f schedule misses after set-up" misses;
  let by_second = Stat.by_second ~lo_ns:(int_of_float (w.lo_us *. 1e3)) ~seconds !stamped in
  { w; rtt_us = !rtts; by_second; spans = !spans }

let check_window w =
  match !first_bad with
  | Some what -> raise (Check_failed what)
  | None -> check (w.lr.Loadgen.failed = 0) "%d requests failed (timeout or short read)" w.lr.Loadgen.failed

let hot o r =
  let keys = hot_set o.seed in
  let setup_s, s = timed_setups ~teardown:stop 3 (fun _ -> start ~cache:false keys) in
  let h = hot_window ~depth:hot_depth ~seed:o.seed ~seconds:o.seconds ~record:false s in
  stop s;
  count r ~attempted:(h.w.lr.Loadgen.issued + Array.length keys) ~failed:h.w.lr.Loadgen.failed;
  check_window h.w;
  (* Per-second figures, then their median over the window's seconds:
     a stall from outside (the host, another tenant) moves one second,
     not the run's figure.  The gated tail is p90: a second's p99
     follows when the daemon's connection threads trade the runtime lock
     more than the work per request, so it is logged but not reported. *)
  let n = List.length h.rtt_us in
  let per_second f = Stat.median (List.map f h.by_second) in
  let rps = per_second (fun xs -> float_of_int (List.length xs)) in
  let p50 = per_second Stat.median in
  let p90 = per_second (fun xs -> Stat.quantile xs 0.9) in
  let p99 = per_second (fun xs -> Stat.quantile xs 0.99) in
  let rss = mb (List.assoc "process.max_rss_bytes" h.w.after) in
  figure "setup_s" setup_s "s" 3;
  figure "hot_rps" rps "1/s" n;
  figure "hot_p50_us" p50 "us" n;
  figure "hot_p90_us" p90 "us" n;
  figure "hot_p99_us" p99 "us" n;
  figure "daemon_rss_mb" rss "MB" 1;
  figure "error_rate" (ratio (float_of_int r.failed) (float_of_int r.attempted)) "ratio" r.attempted;
  metric r "setup_s" setup_s "s";
  metric r "ops_per_s" rps "1/s";
  metric r "p50_us" p50 "us";
  metric r "tail_us" p90 "us";
  metric r "rss_mb" rss "MB"

(* --- serve-mixed ------------------------------------------------------ *)

let warm_rate = 200.
let n_warm_keys = 8

type mixed = {
  mw : window;
  cold_ms : float list;
  warm_us : float list;
  cold_done : (key * string) list;  (** cold keys answered, with their payloads *)
  mspans : Spans.span list;
}

let mixed_window ~seed ~seconds ~record s cold =
  let cold_ms = ref [] and warm_us = ref [] and cold_done = ref [] and spans = ref [] in
  let cold_stream =
    {
      Loadgen.mode = Loadgen.Closed { depth = 1 };
      next =
        (fun n ->
          let id = Printf.sprintf "c%d" n in
          { Loadgen.id; key = n; line = line ~id cold.(n) });
      on_reply =
        (fun r ->
          let req = r.Loadgen.req in
          let k = cold.(req.Loadgen.key) in
          match first_answer k ~id:req.Loadgen.id r.Loadgen.body with
          | Ok payload ->
              cold_ms := (float_of_int (r.Loadgen.recv_ns - r.Loadgen.sent_ns) /. 1e6) :: !cold_ms;
              cold_done := (k, payload) :: !cold_done;
              client_span ~record spans ~tid:0 "client.cold" r;
              true
          | Error reply -> note_bad ("bad cold reply: " ^ reply));
    }
  in
  let st = Random.State.make [| seed; 7 |] in
  let warm_stream =
    {
      Loadgen.mode = Loadgen.Open { rate_per_s = warm_rate };
      next =
        (fun n ->
          let key = Random.State.int st (Array.length s.keys) in
          let id = Printf.sprintf "w%d" n in
          { Loadgen.id; key; line = line ~id s.keys.(key) });
      on_reply =
        (fun r ->
          let req = r.Loadgen.req in
          if String.equal r.Loadgen.body (expected ~id:req.Loadgen.id s.payloads.(req.Loadgen.key)) then begin
            warm_us := us (r.Loadgen.recv_ns - r.Loadgen.due_ns) :: !warm_us;
            client_span ~record spans ~tid:1 "client.warm" r;
            true
          end
          else note_bad ("warm reply differs from the key's first answer: " ^ r.Loadgen.body));
    }
  in
  let w = run_window s ~seconds (fun fd0 fd1 -> [ (fd0, cold_stream); (fd1, warm_stream) ]) in
  (* Counter guard: exactly one computed miss per cold request. *)
  let n_cold = List.length !cold_ms in
  let computed = delta w.before w.after "serve.cache.disk_misses_total" in
  let misses = delta w.before w.after "memo.serve.schedule.misses_total" in
  check
    (computed = float_of_int n_cold && misses = float_of_int n_cold)
    "serve-mixed: %d cold requests but %.0f computed misses (%.0f memory misses)" n_cold computed misses;
  { mw = w; cold_ms = !cold_ms; warm_us = !warm_us; cold_done = !cold_done; mspans = !spans }

(* Whitespace outside strings dropped: the CLI pretty-prints the same
   document the daemon sends on one line. *)
let compact s =
  let b = Buffer.create (String.length s) in
  let in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Buffer.add_char b c;
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else if c = '"' then begin
        in_str := true;
        Buffer.add_char b c
      end
      else if not (c = ' ' || c = '\n' || c = '\t' || c = '\r') then Buffer.add_char b c)
    s;
  Buffer.contents b

(* A seeded sample of cold answers must equal a one-shot
   [transfusion eval --json] of the same key. *)
let check_against_cli ~seed cold_done =
  let a = Array.of_list (List.rev cold_done) in
  let st = Random.State.make [| seed; 11 |] in
  let picks = List.sort_uniq compare (List.init 3 (fun _ -> Random.State.int st (max 1 (Array.length a)))) in
  List.iter
    (fun i ->
      if i < Array.length a then begin
        let k, payload = a.(i) in
        let status, out, _ =
          Proc.run ~tmp:(Lazy.force tmp)
            [ "eval"; "-a"; k.arch; "-m"; k.model; "-s"; string_of_int k.seq; "-b"; string_of_int k.batch;
              "--strategy"; "transfusion"; "--json"; "-" ]
        in
        check (status = 0) "eval exited %d" status;
        check (String.equal (compact out) payload) "cold answer for %s/%s/%d/%d differs from eval --json"
          k.arch k.model k.seq k.batch
      end)
    picks;
  List.length picks

let mixed_keys seed =
  let a = shuffled seed in
  (Array.sub a 0 n_warm_keys, Array.sub a n_warm_keys (Array.length a - n_warm_keys))

let mixed o r =
  let warm, cold = mixed_keys o.seed in
  let setup_s, s = timed_setups ~teardown:stop 3 (fun _ -> start ~cache:true warm) in
  let m = mixed_window ~seed:o.seed ~seconds:o.seconds ~record:false s cold in
  stop s;
  count r ~attempted:(m.mw.lr.Loadgen.issued + Array.length warm) ~failed:m.mw.lr.Loadgen.failed;
  check_window m.mw;
  let n_cli = check_against_cli ~seed:o.seed m.cold_done in
  count r ~attempted:n_cli ~failed:0;
  let n_cold = List.length m.cold_ms and n_warm = List.length m.warm_us in
  let cold_rps = float_of_int n_cold /. m.mw.lr.Loadgen.elapsed_s in
  let warm_p50 = Stat.median m.warm_us and warm_tail, label = Stat.tail m.warm_us in
  let cold_tail, cold_label = Stat.tail m.cold_ms in
  let late = List.map (fun ns -> us ns) m.mw.lr.Loadgen.late_ns in
  let rss = mb (List.assoc "process.max_rss_bytes" m.mw.after) in
  figure "setup_s" setup_s "s" 3;
  figure "cold_rps" cold_rps "1/s" n_cold;
  figure "cold_p50_ms" (Stat.median m.cold_ms) "ms" n_cold;
  figure ("cold_" ^ cold_label ^ "_ms") cold_tail "ms" n_cold;
  figure "warm_p50_us" warm_p50 "us" n_warm;
  figure ("warm_" ^ label ^ "_us") warm_tail "us" n_warm;
  figure "loadgen.late_p99_us" (Stat.quantile late 0.99) "us" (List.length late);
  figure "daemon_rss_mb" rss "MB" 1;
  figure "error_rate" (ratio (float_of_int r.failed) (float_of_int r.attempted)) "ratio" r.attempted;
  (* The gated median is the cold stream's: the warm median falls in the
     middle of waits spread evenly over a search's lock hold, and moves
     with the host's scheduling from run to run (logged, not reported).
     The warm tail carries the blocking. *)
  metric r "setup_s" setup_s "s";
  metric r "ops_per_s" cold_rps "1/s";
  metric r "p50_us" (Stat.median m.cold_ms *. 1e3) "us";
  metric r "tail_us" warm_tail "us";
  metric r "rss_mb" rss "MB"
