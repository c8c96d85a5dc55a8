(* Single-threaded, event-driven NDJSON load generator over already
   connected sockets, multiplexed with Unix.select.

   A closed-loop stream keeps [depth] requests outstanding and sends the
   next only once a reply arrived (callers that wait).  An open-loop
   stream sends on a fixed schedule whatever the replies do
   (independent users), so each of its requests is timed from when it
   was due, and the generator records how late it actually sent.  Error
   replies (judged by the stream's [on_reply]), short reads and
   timeouts count as failures. *)

let now_ns () = Int64.to_int (Tf_obs.now_ns ())

type request = { id : string; key : int; line : string  (** without the newline *) }

type reply = {
  req : request;
  due_ns : int;  (** when the request was due (= sent, in a closed loop) *)
  sent_ns : int;
  recv_ns : int;
  body : string;
}

type mode = Closed of { depth : int } | Open of { rate_per_s : float }

type stream = {
  mode : mode;
  next : int -> request;  (** the n-th request of the stream, n from 0 *)
  on_reply : reply -> bool;  (** false marks the reply failed *)
}

type result = {
  issued : int;
  completed : int;
  failed : int;
  late_ns : int list;  (** open-loop streams: sent minus due, per request *)
  elapsed_s : float;  (** start to the last reply *)
}

type conn = {
  fd : Unix.file_descr;
  s : stream;
  outstanding : (request * int * int) Queue.t;  (** request, due, sent *)
  wbuf : Buffer.t;
  pending : Buffer.t;  (** bytes of a reply line not yet terminated *)
  mutable n : int;
  mutable next_due : int;
  mutable closed : bool;
}

let chunk = Bytes.create 65536

(* A reply this late counts as a timeout. *)
let timeout_ns = 30_000_000_000

let run ~duration_s streams =
  let start = now_ns () in
  let until = start + int_of_float (duration_s *. 1e9) in
  let issued = ref 0 and completed = ref 0 and failed = ref 0 and late = ref [] in
  let conns =
    List.map
      (fun (fd, s) ->
        Unix.set_nonblock fd;
        {
          fd;
          s;
          outstanding = Queue.create ();
          wbuf = Buffer.create 4096;
          pending = Buffer.create 4096;
          n = 0;
          next_due = start;
          closed = false;
        })
      streams
  in
  let close_failed c =
    failed := !failed + Queue.length c.outstanding;
    Queue.clear c.outstanding;
    c.closed <- true
  in
  let issue c ~due now =
    let req = c.s.next c.n in
    c.n <- c.n + 1;
    incr issued;
    Buffer.add_string c.wbuf req.line;
    Buffer.add_char c.wbuf '\n';
    Queue.push (req, due, now) c.outstanding;
    match c.s.mode with Open _ -> late := (now - due) :: !late | Closed _ -> ()
  in
  let flush c =
    let len = Buffer.length c.wbuf in
    if len > 0 && not c.closed then
      match Unix.write_substring c.fd (Buffer.contents c.wbuf) 0 len with
      | w ->
          let rest = Buffer.sub c.wbuf w (len - w) in
          Buffer.clear c.wbuf;
          Buffer.add_string c.wbuf rest
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_failed c
  in
  let deliver c line now =
    match Queue.take_opt c.outstanding with
    | None -> incr failed (* a reply nobody asked for *)
    | Some (req, due, sent) ->
        let ok = c.s.on_reply { req; due_ns = due; sent_ns = sent; recv_ns = now; body = line } in
        if ok then incr completed else incr failed
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_failed c
    | n ->
        let now = now_ns () in
        let start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then begin
            Buffer.add_subbytes c.pending chunk !start (i - !start);
            let line = Buffer.contents c.pending in
            Buffer.clear c.pending;
            start := i + 1;
            deliver c line now
          end
        done;
        Buffer.add_subbytes c.pending chunk !start (n - !start)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_failed c
  in
  let live c = (not c.closed) && not (Queue.is_empty c.outstanding && now_ns () >= until) in
  let rec loop () =
    let now = now_ns () in
    List.iter
      (fun c ->
        if (not c.closed) && now < until then
          match c.s.mode with
          | Closed { depth } ->
              while Queue.length c.outstanding < depth do
                issue c ~due:now now
              done
          | Open { rate_per_s } ->
              let period = int_of_float (1e9 /. rate_per_s) in
              while c.next_due <= now && c.next_due < until do
                issue c ~due:c.next_due now;
                c.next_due <- c.next_due + period
              done)
      conns;
    List.iter flush conns;
    (* A reply overdue by the timeout fails everything still queued on
       that connection: the stream cannot resynchronise. *)
    List.iter
      (fun c ->
        match Queue.peek_opt c.outstanding with
        | Some (_, _, sent) when now - sent > timeout_ns -> close_failed c
        | _ -> ())
      conns;
    let active = List.filter live conns in
    if active <> [] then begin
      let wake =
        List.fold_left
          (fun acc c ->
            match c.s.mode with
            | Open _ when c.next_due < until -> min acc c.next_due
            | _ -> acc)
          (now + 50_000_000) active
      in
      let timeout = Float.max 0. (float_of_int (wake - now) /. 1e9) in
      let rds = List.filter_map (fun c -> if Queue.is_empty c.outstanding then None else Some c.fd) active in
      let wrs = List.filter_map (fun c -> if Buffer.length c.wbuf > 0 then Some c.fd else None) active in
      let readable, _, _ =
        try Unix.select rds wrs [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun c -> if List.memq c.fd readable then read c) active;
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> Unix.clear_nonblock c.fd) conns;
  {
    issued = !issued;
    completed = !completed;
    failed = !failed;
    late_ns = !late;
    elapsed_s = float_of_int (now_ns () - start) /. 1e9;
  }
