(* Spans of a traced run: the benchmark's own spans around its calls
   into each layer, merged with the program's Tf_obs trace spans, then
   reduced to per-layer self times (the layer ledger) and written out
   as Chrome trace-event JSON when the run ends. *)

module R = Tf_report.Json_read

type span = {
  name : string;
  pid : int;
      (** 0 = the load generator's requests, 1 = this benchmark process,
          2 = the serve daemon, 3 = in-process probes *)
  tid : int;  (** OCaml domain *)
  start_us : float;
  end_us : float;
  rid : string;  (** request id, "" when the span belongs to none *)
  mutable parent : int;  (** index of the enclosing span, -1 at the root *)
  mutable self_us : float;
}

let make ?(rid = "") ~pid ~tid name start_us end_us =
  { name; pid; tid; start_us; end_us; rid; parent = -1; self_us = 0. }

(* Complete ("X") events of a Tf_obs Chrome trace, timestamps as the
   trace rebased them.  Tf_obs writes one event per line, so events are
   parsed a line at a time: a daemon trace can hold hundreds of
   thousands. *)
let of_tf_obs ~pid json =
  List.filter_map
    (fun line ->
      if not (String.starts_with ~prefix:"{\"name\"" line) then None
      else
        let ev =
          R.parse (if String.ends_with ~suffix:"," line then String.sub line 0 (String.length line - 1) else line)
        in
        match R.find "ph" ev, R.find "dur" ev with
        | Some (R.Str "X"), Some (R.Num dur) ->
            let ts = R.to_float (R.member "ts" ev) in
            let rid =
              match R.find "args" ev with
              | Some args -> ( match R.find "request_id" args with Some (R.Str s) -> s | _ -> "")
              | None -> ""
            in
            Some
              (make ~rid ~pid ~tid:(int_of_float (R.to_float (R.member "tid" ev)))
                 (R.to_string (R.member "name" ev)) ts (ts +. dur))
        | _ -> None)
    (String.split_on_char '\n' json)

let shift d s = { s with start_us = s.start_us +. d; end_us = s.end_us +. d }

(* Every instant of a thread goes to the innermost span open on that
   thread at that instant (the one started last); a span's self time is
   what it was charged.  For properly nested spans this is the duration
   minus what the children cover.  Threads of one domain share a tid,
   so a short span of another request can land inside a long one; the
   time it holds is then charged to it alone, never twice. *)
let charge (a : span array) indices =
  let key i = (a.(i).pid, a.(i).tid) in
  let events =
    List.sort compare
      (List.concat_map (fun i -> [ (key i, a.(i).start_us, 1, i); (key i, a.(i).end_us, 0, i) ]) indices)
  in
  let innermost = function
    | [] -> None
    | i :: rest -> Some (List.fold_left (fun j k -> if a.(k).start_us > a.(j).start_us then k else j) i rest)
  in
  let open_ = ref [] and last = ref 0. in
  List.iter
    (fun (_, t, kind, i) ->
      (match innermost !open_ with Some j -> a.(j).self_us <- a.(j).self_us +. (t -. !last) | None -> ());
      last := t;
      if kind = 1 then open_ := i :: !open_ else open_ := List.filter (( <> ) i) !open_)
    events

(* Copies of [spans], each linked to the innermost span of its thread
   that contains it, with self times charged.  The load generator's
   requests (pid 0) overlap without nesting in an open loop: they stay
   unlinked, their self time their duration. *)
let link spans =
  let a = Array.of_list (List.map (fun s -> { s with parent = -1; self_us = 0. }) spans) in
  let requests, nested = List.partition (fun i -> a.(i).pid = 0) (List.init (Array.length a) Fun.id) in
  List.iter (fun i -> a.(i).self_us <- a.(i).end_us -. a.(i).start_us) requests;
  let order = Array.of_list nested in
  Array.sort
    (fun i j ->
      compare (a.(i).pid, a.(i).tid, a.(i).start_us, -.a.(i).end_us)
        (a.(j).pid, a.(j).tid, a.(j).start_us, -.a.(j).end_us))
    order;
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = a.(i) in
      let rec unwind () =
        match !stack with
        | j :: rest when a.(j).pid <> s.pid || a.(j).tid <> s.tid || a.(j).end_us <= s.start_us ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match List.find_opt (fun j -> a.(j).end_us >= s.end_us) !stack with
      | Some j -> s.parent <- j
      | None -> ());
      stack := i :: !stack)
    order;
  charge a nested;
  a

(* Clip to [lo, hi] and drop what falls outside. *)
let clip ~lo ~hi spans =
  List.filter_map
    (fun s ->
      let start_us = Float.max lo s.start_us and end_us = Float.min hi s.end_us in
      if end_us > start_us then Some { s with start_us; end_us }
      else None)
    spans

(* The layer a span's self time is charged to, by span name. *)
let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  if pre "serve." then Some "serve"
  else if pre "strategy." then Some "strategies"
  else if pre "tileseek." then Some "tileseek"
  else if pre "dpipe." then Some "dpipe"
  else if pre "parallel." then Some "parallel"
  else if pre "decode." then Some "decode"
  else if pre "experiments." then Some "experiments"
  else if pre "analysis." then Some "analysis"
  else if pre "serving." then Some "serving"
  else if pre "perfbench.check" then Some "checks"
  else None

let layers =
  [ "serve"; "strategies"; "tileseek"; "dpipe"; "parallel"; "decode"; "experiments"; "analysis"; "serving"; "checks" ]

(* The layer ledger over one window of the critical thread
   ([pid], [tid]): the time each layer's spans hold that thread, in ms,
   and what no layer span covers.  Spans are clipped to the window
   first, so the layer times plus [unattributed] add up to the window
   exactly.  A pool chunk the critical thread ran itself is charged to
   the layer that fanned it out; [parallel] keeps the pool's own
   overhead and the wait for other domains. *)
let ledger ~pid ~tid ~lo ~hi spans =
  let mine = List.filter (fun s -> s.pid = pid && s.tid = tid && layer_of s.name <> None) spans in
  let linked = link (clip ~lo ~hi mine) in
  let rec owner p =
    if p < 0 then "parallel"
    else
      match layer_of linked.(p).name with
      | Some "parallel" | None -> owner linked.(p).parent
      | Some l -> l
  in
  let layer i =
    let s = linked.(i) in
    if String.starts_with ~prefix:"parallel.chunk" s.name then owner s.parent
    else Option.get (layer_of s.name)
  in
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i s -> Hashtbl.replace totals (layer i) (s.self_us +. Option.value ~default:0. (Hashtbl.find_opt totals (layer i))))
    linked;
  let per_layer =
    List.map (fun l -> (l, Option.value ~default:0. (Hashtbl.find_opt totals l) /. 1e3)) layers
  in
  let wall_ms = (hi -. lo) /. 1e3 in
  let attributed = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. per_layer in
  (per_layer, wall_ms, wall_ms -. attributed)

(* Summed self time (us) of the spans named [name], over all threads. *)
let self_total linked name =
  Array.fold_left (fun acc s -> if s.name = name then acc +. s.self_us else acc) 0. linked

let json_escape s = Tf_experiments.Export.Json.to_line (Tf_experiments.Export.Json.Str s)

(* Chrome trace-event JSON with the parent link, request id and self
   time carried in each event's args. *)
let write path linked =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      Array.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request_id\":%s,\"self_us\":%.3f}}"
            (json_escape s.name) s.pid s.tid s.start_us (s.end_us -. s.start_us) i s.parent
            (json_escape s.rid) s.self_us)
        linked;
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")
