(* Closed- and open-loop drivers over one or two daemon connections,
   all on one thread: a select loop sends, receives and timestamps. *)

type sample = {
  req : Mix.request;
  id : int;
  due_ns : int; (* open loop: when it was due; closed loop: = sent_ns *)
  sent_ns : int;
  done_ns : int;
  gap_ns : int; (* how late the generator sent it (see [lateness]) *)
  reply : string;
}

let now = Obs.Clock.now_ns

let conn_of conns fd =
  let rec go i = if (conns.(i) : Client.conn).fd = fd then i else go (i + 1) in
  go 0

(* Closed loop: each connection keeps up to [depth] requests in
   flight, taking the next from [next i] as soon as an answer arrives,
   until [next] runs dry.  A closed loop's lateness is the generator's
   own turnaround: the gap between an answer arriving and the request
   it freed being sent. *)
let closed_loop ?(depth = 1) (conns : Client.conn array) (next : int -> (int * Mix.request) option) =
  let k = Array.length conns in
  let inflight = Hashtbl.create 64 in
  let live = Array.make k true in
  let out = ref [] in
  let send i ~freed_ns =
    match if live.(i) then next i else None with
    | None -> live.(i) <- false
    | Some (id, r) ->
      let t = now () in
      Client.send conns.(i) r.Mix.line;
      Hashtbl.replace inflight id (r, t, t - freed_ns)
  in
  let t0 = now () in
  for i = 0 to k - 1 do
    for _ = 1 to depth do send i ~freed_ns:t0 done
  done;
  let rec drain i =
    match Queue.take_opt conns.(i).Client.lines with
    | None -> ()
    | Some line ->
      let done_ns = now () in
      let id = Client.id_of line in
      let req, sent_ns, gap_ns =
        match Hashtbl.find_opt inflight id with
        | Some x -> x
        | None -> failwith (Printf.sprintf "reply to unknown request id %d" id)
      in
      Hashtbl.remove inflight id;
      out := { req; id; due_ns = sent_ns; sent_ns; done_ns; gap_ns; reply = line } :: !out;
      send i ~freed_ns:done_ns;
      drain i
  in
  let fds = Array.to_list (Array.map (fun (c : Client.conn) -> c.Client.fd) conns) in
  while Hashtbl.length inflight > 0 do
    let ready, _, _ = Unix.select fds [] [] (-1.) in
    List.iter
      (fun fd ->
        let i = conn_of conns fd in
        if not (Client.fill conns.(i)) then failwith "daemon closed the connection";
        drain i)
      ready
  done;
  List.rev !out

(* [next] for a closed loop over fixed per-connection lists. *)
let of_lists (queues : (int * Mix.request) list array) =
  let qs = Array.map ref queues in
  fun i ->
    match !(qs.(i)) with
    | [] -> None
    | x :: rest ->
      qs.(i) := rest;
      Some x

(* How long before a due time the open loop stops sleeping and spins. *)
let spin_s = 0.0003

(* How long the open loop waits for answers after the last send. *)
let drain_s = 2.

(* Open loop: request [i] is due at [start + i / rate] and is sent then
   (or as soon after as the generator gets to it), alternating over the
   connections, whether or not earlier answers came back.  Sending
   stops after [seconds]; answers are awaited up to [drain_s] more.
   Unanswered requests come back with [done_ns = -1]. *)

let open_loop (conns : Client.conn array) ~rate ~seconds ~first_id
    (request : int -> Mix.request) =
  let k = Array.length conns in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let reqs = Array.init n (fun i -> request (first_id + i)) in
  let start_ns = now () + 1_000_000 in
  let due = Array.init n (fun i -> Stats.due_ns ~start_ns ~rate i) in
  let sent = Array.make n 0 and done_ = Array.make n (-1) in
  let replies = Array.make n "" in
  let next = ref 0 and answered = ref 0 in
  let deadline = due.(n - 1) + int_of_float (drain_s *. 1e9) in
  let fds = Array.to_list (Array.map (fun (c : Client.conn) -> c.Client.fd) conns) in
  let take i =
    let rec go () =
      match Queue.take_opt conns.(i).Client.lines with
      | None -> ()
      | Some line ->
        let idx = Client.id_of line - first_id in
        done_.(idx) <- now ();
        replies.(idx) <- line;
        incr answered;
        go ()
    in
    go ()
  in
  (* Sends never block: a request the socket cannot take yet waits in
     its connection's outbound buffer, so the loop keeps reading
     answers while the daemon is busy writing them. *)
  Array.iter (fun (c : Client.conn) -> Unix.set_nonblock c.Client.fd) conns;
  while !answered < n && now () < deadline do
    let t = now () in
    while !next < n && due.(!next) <= t do
      Client.queue_send conns.(!next mod k) reqs.(!next).Mix.line;
      sent.(!next) <- now ();
      incr next
    done;
    Array.iter Client.flush conns;
    (* Spin rather than sleep until the next due time: waking an idle
       vCPU from a timed sleep can take milliseconds, which would be
       charged as lateness of the generator, not latency of the daemon. *)
    let timeout =
      if !next < n then
        let gap = float_of_int (due.(!next) - now ()) /. 1e9 in
        if gap > spin_s then gap -. spin_s else 0.
      else 0.001
    in
    let wfds =
      List.filter_map
        (fun (c : Client.conn) -> if Buffer.length c.Client.out > 0 then Some c.Client.fd else None)
        (Array.to_list conns)
    in
    let ready, _, _ = Unix.select fds wfds [] timeout in
    List.iter
      (fun fd ->
        let i = conn_of conns fd in
        if not (Client.fill conns.(i)) then failwith "daemon closed the connection";
        take i)
      ready
  done;
  Array.iter (fun (c : Client.conn) -> Unix.clear_nonblock c.Client.fd) conns;
  Array.init n (fun i ->
      {
        req = reqs.(i);
        id = first_id + i;
        due_ns = due.(i);
        sent_ns = sent.(i);
        done_ns = done_.(i);
        gap_ns = Stats.lateness_ns ~due_ns:due.(i) ~sent_ns:sent.(i);
        reply = replies.(i);
      })
