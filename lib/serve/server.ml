(* The `advisor serve` daemon.

   One select loop on the calling domain owns all I/O: it accepts
   Unix-domain-socket connections, reads newline-delimited JSON
   requests from them and from stdin, validates cheaply, and enqueues
   jobs on a bounded queue ({!Jobq}).  A group of worker domains
   (accounted against the {!Pool} budget, so simulations *inside* a
   request still fan out safely) drains the queue and writes each
   response directly to its connection under a per-connection write
   lock — responses may interleave across requests, which is why the
   protocol echoes ids.

   Backpressure: a full queue answers "overloaded" immediately instead
   of buffering an unbounded backlog of seconds-long simulations.

   Timeouts: each job installs a wall-clock deadline as the worker
   domain's {!Gpusim.Gpu} cancellation check before dispatching, so a
   runaway simulation unwinds with a "timeout" error while the daemon
   (and every other request) keeps running.  This layers on the
   instruction-count runaway guard, which remains the backstop for
   infinite loops when no deadline is configured.

   Shutdown: SIGINT/SIGTERM (wired by the CLI to {!request_shutdown})
   stops accepting and reading, drains every accepted job, flushes the
   responses, closes the socket and returns — the CLI then runs its
   usual finalizer (trace export, metrics dump) and exits 0. *)

module Json = Analysis.Json

type config = {
  socket_path : string option;
  stdio : bool;
  workers : int;
  queue_cap : int;
  default_timeout_ms : int option; (* None/0 = no per-request deadline *)
  cache : Rescache.config option; (* None = result caching off *)
  metrics_addr : string option; (* host:port for Prometheus exposition *)
  access_log : string option; (* NDJSON access log path *)
}

let default_config =
  {
    socket_path = None;
    stdio = true;
    workers = min 4 (Domain.recommended_domain_count ());
    queue_cap = 64;
    default_timeout_ms = Some 300_000;
    cache = Some Rescache.default_config;
    metrics_addr = None;
    access_log = None;
  }

(* ----- metrics ----- *)

let m_depth = Obs.Metrics.gauge "serve.queue.depth"
let m_wait = Obs.Metrics.histogram "serve.request.wait_ns"
let m_run = Obs.Metrics.histogram "serve.request.run_ns"
let m_requests = Obs.Metrics.counter "serve.requests"
let m_ok = Obs.Metrics.counter "serve.requests.ok"
let m_failed = Obs.Metrics.counter "serve.requests.failed"
let m_timeout = Obs.Metrics.counter "serve.requests.timeout"
let m_overloaded = Obs.Metrics.counter "serve.requests.overloaded"
let m_rejected = Obs.Metrics.counter "serve.requests.rejected"
let m_connections = Obs.Metrics.counter "serve.connections"

(* The static fast path: requests answered by the IR-only estimator on
   the intake domain (hits), requests that fell back to the worker
   queue because the estimator raised (fallbacks), and how long each
   inline estimate took. *)
let m_static_hits = Obs.Metrics.counter "serve.static.hits"
let m_static_fallbacks = Obs.Metrics.counter "serve.static.fallbacks"
let m_estimate_ms = Obs.Metrics.histogram "serve.static.estimate.ms"

(* ----- connections and jobs ----- *)

type conn = {
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  wlock : Mutex.t;
  mutable pending : string; (* partial line carried between reads *)
  mutable reading : bool; (* false after EOF / read error *)
  mutable writable : bool; (* false after a write error *)
  inflight : int Atomic.t; (* enqueued jobs not yet replied to *)
  kind : [ `Stdio | `Socket ];
}

type job = {
  req : Protocol.request;
  conn : conn;
  enq_ns : int;
  cache_key : string option; (* store the result here after a miss *)
}

type t = {
  cfg : config;
  queue : job Jobq.t;
  cache : Rescache.t option;
  access : Accesslog.t option;
  stop : bool Atomic.t;
  mutable inline : bool; (* no worker domains: run jobs on the I/O domain *)
}

let create cfg =
  {
    cfg;
    queue = Jobq.create ~cap:cfg.queue_cap;
    cache = Option.map Rescache.create cfg.cache;
    access = Option.map (fun path -> Accesslog.create ~path) cfg.access_log;
    stop = Atomic.make false;
    inline = false;
  }

(* Domain- and signal-safe: flips one atomic the select loop polls. *)
let request_shutdown t = Atomic.set t.stop true

(* ----- writing ----- *)

let write_line conn line =
  let data = Bytes.of_string (line ^ "\n") in
  Mutex.protect conn.wlock (fun () ->
      if conn.writable then
        try
          let len = Bytes.length data in
          let off = ref 0 in
          while !off < len do
            off := !off + Unix.write conn.out_fd data !off (len - !off)
          done
        with Unix.Unix_error (e, _, _) ->
          conn.writable <- false;
          Obs.Log.debug "serve" "dropping reply: %s" (Unix.error_message e))

let reply conn line =
  write_line conn line;
  ignore (Atomic.fetch_and_add conn.inflight (-1))

(* ----- per-request accounting (latency histograms, SLOs, access log) ----- *)

let request_tier (req : Protocol.request) =
  match req.Protocol.op with
  | "profile" | "profile_fast" ->
    if Router.is_static req then "static" else "exact"
  | _ -> ""

(* One terminal accounting point for every *validated* answer: total
   latency lands in the op class's histogram, the SLO check runs, and
   an access-log line is written.  Rejected requests (parse/validate
   failures, backpressure) go through [reject_entry] instead so the
   latency histograms only describe work the daemon actually did. *)
let account t ~(req : Protocol.request) ~outcome ~cache ~wait_ns ~run_ns =
  let cls = Router.op_class req in
  let total_ns = wait_ns + run_ns in
  Obs.Metrics.observe (Obs.Metrics.histogram ("serve.op." ^ cls ^ ".ns")) total_ns;
  Slo.observe ~op:cls ~total_ns;
  match t.access with
  | None -> ()
  | Some al ->
    Accesslog.log al ~id:req.Protocol.id ~op:req.Protocol.op
      ~app:(Option.value req.Protocol.app ~default:"")
      ~arch:req.Protocol.arch_name ~tier:(request_tier req) ~cache ~outcome
      ~wait_ns ~run_ns

let reject_entry t ~id ~op ~outcome =
  match t.access with
  | None -> ()
  | Some al ->
    Accesslog.log al ~id ~op ~app:"" ~arch:"" ~tier:"" ~cache:"" ~outcome
      ~wait_ns:0 ~run_ns:0

(* ----- job execution (worker domains) ----- *)

let run_job t job =
  Obs.Metrics.set_gauge m_depth (float_of_int (Jobq.length t.queue));
  let started = Obs.Clock.now_ns () in
  let wait_ns = started - job.enq_ns in
  Obs.Metrics.observe m_wait wait_ns;
  let timeout_ms =
    match job.req.Protocol.timeout_ms with
    | Some ms -> Some ms
    | None -> t.cfg.default_timeout_ms
  in
  (match timeout_ms with
  | Some ms when ms > 0 ->
    let deadline = started + (ms * 1_000_000) in
    Gpusim.Gpu.set_cancel_check (fun () ->
        if Obs.Clock.now_ns () > deadline then
          Some (Printf.sprintf "request exceeded its %d ms timeout" ms)
        else None)
  | _ -> ());
  Fun.protect ~finally:Gpusim.Gpu.clear_cancel_check @@ fun () ->
  let id = job.req.Protocol.id and op = job.req.Protocol.op in
  let dispatch () =
    match Router.dispatch ?cache:t.cache job.req with
    | Ok result ->
      Obs.Metrics.incr m_ok;
      (* serialize once; the same bytes answer this request and, via
         the cache, every identical request after it *)
      let raw = Analysis.Json.to_string result in
      (match (t.cache, job.cache_key) with
      | Some cache, Some key -> Rescache.store cache key raw
      | _ -> ());
      (Protocol.ok_line_raw ~id ~op raw, "ok")
    | Error (code, msg) ->
      Obs.Metrics.incr m_failed;
      (Protocol.to_line (Protocol.error_response ~id ~op ~code msg), code)
    | exception Gpusim.Gpu.Cancelled reason ->
      Obs.Metrics.incr m_timeout;
      ( Protocol.to_line (Protocol.error_response ~id ~op ~code:"timeout" reason),
        "timeout" )
    | exception Gpusim.Gpu.Launch_error msg ->
      Obs.Metrics.incr m_failed;
      ( Protocol.to_line
          (Protocol.error_response ~id ~op ~code:"failed"
             ("launch aborted: " ^ msg)),
        "failed" )
    | exception e ->
      Obs.Metrics.incr m_failed;
      ( Protocol.to_line
          (Protocol.error_response ~id ~op ~code:"failed"
             (Printexc.to_string e)),
        "failed" )
  in
  let line, outcome = Obs.Trace.with_span ~cat:"serve" ("serve:" ^ op) dispatch in
  let run_ns = Obs.Clock.now_ns () - started in
  Obs.Metrics.observe m_run run_ns;
  account t ~req:job.req ~outcome
    ~cache:(if job.cache_key <> None then "miss" else "")
    ~wait_ns ~run_ns;
  reply job.conn line

let worker_loop t =
  let rec go () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
      run_job t job;
      go ()
  in
  go ()

(* ----- request intake (I/O domain) ----- *)

(* Hand a validated request to the worker queue (the caller has already
   bumped [inflight]); a full or closing queue answers immediately. *)
let enqueue t conn req cache_key =
  let id = req.Protocol.id and op = req.Protocol.op in
  match
    Jobq.try_push t.queue { req; conn; enq_ns = Obs.Clock.now_ns (); cache_key }
  with
  | `Ok ->
    Obs.Metrics.set_gauge m_depth (float_of_int (Jobq.length t.queue));
    if t.inline then
      (* no worker domains: serve the job right here, sequentially *)
      (match Jobq.pop t.queue with
      | Some job -> run_job t job
      | None -> ())
  | `Full ->
    ignore (Atomic.fetch_and_add conn.inflight (-1));
    Obs.Metrics.incr m_overloaded;
    reject_entry t ~id ~op ~outcome:"overloaded";
    write_line conn
      (Protocol.to_line
         (Protocol.error_response ~id ~op ~code:"overloaded"
            (Printf.sprintf
               "job queue is full (%d queued); retry later or raise --queue"
               (Jobq.capacity t.queue))))
  | `Closed ->
    ignore (Atomic.fetch_and_add conn.inflight (-1));
    Obs.Metrics.incr m_rejected;
    reject_entry t ~id ~op ~outcome:"shutting_down";
    write_line conn
      (Protocol.to_line
         (Protocol.error_response ~id ~op ~code:"shutting_down"
            "daemon is shutting down"))

let handle_line t conn line =
  let line = String.trim line in
  if line <> "" then begin
    Obs.Metrics.incr m_requests;
    match Protocol.parse_request line with
    | Error (id, code, msg) ->
      Obs.Metrics.incr m_rejected;
      reject_entry t ~id ~op:"?" ~outcome:code;
      write_line conn (Protocol.to_line (Protocol.error_response ~id ~op:"?" ~code msg))
    | Ok req ->
      let id = req.Protocol.id and op = req.Protocol.op in
      let process () =
        match Router.validate req with
        | Error (code, msg) ->
          Obs.Metrics.incr m_rejected;
          reject_entry t ~id ~op ~outcome:code;
          write_line conn (Protocol.to_line (Protocol.error_response ~id ~op ~code msg))
        | Ok () -> (
        (* The fast path: a content-addressed hit answers right here on
           the I/O domain — no queue slot, no worker, no simulation. *)
        let cache_key =
          match t.cache with None -> None | Some _ -> Cachekey.of_request req
        in
        let probe_start = Obs.Clock.now_ns () in
        let cached =
          match (t.cache, cache_key) with
          | Some cache, Some key -> Rescache.find cache key
          | _ -> None
        in
        match cached with
        | Some raw ->
          Obs.Metrics.incr m_ok;
          account t ~req ~outcome:"ok" ~cache:"hit" ~wait_ns:0
            ~run_ns:(Obs.Clock.now_ns () - probe_start);
          write_line conn (Protocol.ok_line_raw ~id ~op raw)
        | None when Router.is_static req -> (
          (* The static tier never touches the simulator: answer right
             here on the intake domain, zero queue slots, zero launches.
             If the estimator itself raises, fall back to the worker
             queue so the request still gets a proper error envelope. *)
          let started = Obs.Clock.now_ns () in
          match
            Obs.Trace.with_span ~cat:"serve" "serve:static" (fun () ->
                Router.dispatch req)
          with
          | Ok result ->
            let raw = Analysis.Json.to_string result in
            (match (t.cache, cache_key) with
            | Some cache, Some key -> Rescache.store cache key raw
            | _ -> ());
            Obs.Metrics.incr m_static_hits;
            Obs.Metrics.observe m_estimate_ms
              ((Obs.Clock.now_ns () - started) / 1_000_000);
            Obs.Metrics.incr m_ok;
            account t ~req ~outcome:"ok"
              ~cache:(if cache_key <> None then "miss" else "")
              ~wait_ns:0
              ~run_ns:(Obs.Clock.now_ns () - started);
            write_line conn (Protocol.ok_line_raw ~id ~op raw)
          | Error (code, msg) ->
            Obs.Metrics.incr m_failed;
            account t ~req ~outcome:code
              ~cache:(if cache_key <> None then "miss" else "")
              ~wait_ns:0
              ~run_ns:(Obs.Clock.now_ns () - started);
            write_line conn
              (Protocol.to_line (Protocol.error_response ~id ~op ~code msg))
          | exception _ ->
            Obs.Metrics.incr m_static_fallbacks;
            ignore (Atomic.fetch_and_add conn.inflight 1);
            enqueue t conn req cache_key)
        | None ->
          ignore (Atomic.fetch_and_add conn.inflight 1);
          enqueue t conn req cache_key)
      in
      Obs.Trace.with_span ~cat:"serve" "serve:intake" process
  end

let read_conn t conn =
  let buf = Bytes.create 4096 in
  let n =
    try Unix.read conn.in_fd buf 0 (Bytes.length buf)
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  if n = 0 then begin
    (* EOF: a final unterminated line still counts as a request *)
    conn.reading <- false;
    if String.trim conn.pending <> "" then handle_line t conn conn.pending;
    conn.pending <- ""
  end
  else begin
    let data = conn.pending ^ Bytes.sub_string buf 0 n in
    let rec go = function
      | [ last ] -> conn.pending <- last
      | line :: rest ->
        handle_line t conn line;
        go rest
      | [] -> conn.pending <- ""
    in
    go (String.split_on_char '\n' data)
  end

(* ----- the daemon loop ----- *)

let make_conn ~kind ~in_fd ~out_fd =
  {
    in_fd;
    out_fd;
    wlock = Mutex.create ();
    pending = "";
    reading = true;
    writable = true;
    inflight = Atomic.make 0;
    kind;
  }

(* A socket file left behind by a killed daemon used to make startup
   fail (EADDRINUSE after an unguarded bind, or an unconditional unlink
   that could silently steal the path from a *live* daemon).  Probe
   before touching anything: a successful connect means a live daemon
   owns the path — starting a second one is an error worth a clear
   message; connection-refused means nobody is accepting — the file is
   stale and safe to remove.  A path that exists but is not a socket is
   never unlinked. *)
let setup_listener path =
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind; _ } when st_kind <> Unix.S_SOCK ->
    failwith
      (Printf.sprintf "--socket %s: path exists and is not a socket; refusing \
                       to replace it" path)
  | _ ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "--socket %s: a live daemon is already serving on \
                         this path" path)
    else begin
      Obs.Log.warn "serve" "removing stale socket file %s" path;
      try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    end);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

(* ----- Prometheus exposition listener (--metrics-addr) ----- *)

(* "host:port" or bare "port" (loopback).  Numeric host only: the
   single-threaded select loop must not block in a resolver. *)
let parse_metrics_addr addr =
  let host, port_s =
    match String.rindex_opt addr ':' with
    | Some i ->
      (String.sub addr 0 i, String.sub addr (i + 1) (String.length addr - i - 1))
    | None -> ("127.0.0.1", addr)
  in
  let host = if host = "" then "127.0.0.1" else host in
  match
    ( (try Some (Unix.inet_addr_of_string host) with Failure _ -> None),
      int_of_string_opt port_s )
  with
  | Some ip, Some port when port > 0 && port < 65536 -> (ip, port)
  | _ ->
    failwith
      (Printf.sprintf
         "--metrics-addr %s: expected [numeric-host:]port, e.g. 127.0.0.1:9464"
         addr)

let setup_metrics_listener addr =
  let ip, port = parse_metrics_addr addr in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (ip, port));
  Unix.listen fd 16;
  fd

let http_text_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
     charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length body) body

(* Answer one scrape: accept, write the whole response, close.  The
   request line is never parsed — scrapes are GETs whose response does
   not depend on the path, and the select loop must not wait on a slow
   client.  The response is a few KB, well inside the socket buffer.
   Any request bytes that already arrived are drained (nonblocking)
   before the close: closing with unread data in the receive buffer
   makes the kernel send RST instead of FIN, and the reset can discard
   response bytes the client has not read yet. *)
let answer_scrape listen_fd body =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error _ -> ()
  | cfd, _ -> (
    let data = Bytes.of_string (http_text_response body) in
    (try
       let len = Bytes.length data in
       let off = ref 0 in
       while !off < len do
         off := !off + Unix.write cfd data !off (len - !off)
       done
     with Unix.Unix_error _ -> ());
    (try
       Unix.set_nonblock cfd;
       let junk = Bytes.create 1024 in
       while Unix.read cfd junk 0 (Bytes.length junk) > 0 do () done
     with Unix.Unix_error _ -> ());
    try Unix.close cfd with Unix.Unix_error _ -> ())

let run t =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let listen_fd = Option.map setup_listener t.cfg.socket_path in
  let metrics_fd = Option.map setup_metrics_listener t.cfg.metrics_addr in
  let conns = ref [] in
  if t.cfg.stdio then
    conns := [ make_conn ~kind:`Stdio ~in_fd:Unix.stdin ~out_fd:Unix.stdout ];
  let group =
    if t.cfg.workers <= 0 then None
    else Some (Pool.spawn_group ~want:t.cfg.workers (fun () -> worker_loop t))
  in
  let worker_count = match group with None -> 0 | Some g -> Pool.group_size g in
  if worker_count = 0 then begin
    t.inline <- true;
    if t.cfg.workers > 0 then
      Obs.Log.warn "serve"
        "no worker domains available; serving requests sequentially"
  end;
  Obs.Log.info "serve" "serving%s%s: %d workers, queue %d, timeout %s"
    (if t.cfg.stdio then " stdio" else "")
    (match t.cfg.socket_path with
    | Some p -> Printf.sprintf " socket %s" p
    | None -> "")
    worker_count t.cfg.queue_cap
    (match t.cfg.default_timeout_ms with
    | Some ms when ms > 0 -> Printf.sprintf "%dms" ms
    | _ -> "none");
  let reading_conns () = List.filter (fun c -> c.reading) !conns in
  (* Drop closed socket connections once their replies are out; stdio
     fds are never closed (the parent owns them). *)
  let sweep_closed () =
    conns :=
      List.filter
        (fun c ->
          if c.reading || Atomic.get c.inflight > 0 then true
          else
            match c.kind with
            | `Stdio -> true (* keep: EOF on stdin is remembered via [reading] *)
            | `Socket ->
              (try Unix.close c.in_fd with Unix.Unix_error _ -> ());
              false)
        !conns
  in
  (try
     let running = ref true in
     while !running && not (Atomic.get t.stop) do
       sweep_closed ();
       let watch =
         (match listen_fd with Some fd -> [ fd ] | None -> [])
         @ (match metrics_fd with Some fd -> [ fd ] | None -> [])
         @ List.map (fun c -> c.in_fd) (reading_conns ())
       in
       if watch = [] then
         (* nothing will ever produce another request: batch mode done *)
         running := false
       else begin
         match Unix.select watch [] [] 0.25 with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | ready, _, _ ->
           List.iter
             (fun fd ->
               if listen_fd = Some fd then begin
                 let cfd, _ = Unix.accept fd in
                 Obs.Metrics.incr m_connections;
                 conns := make_conn ~kind:`Socket ~in_fd:cfd ~out_fd:cfd :: !conns
               end
               else if metrics_fd = Some fd then
                 answer_scrape fd (Obs.Metrics.to_prometheus ())
               else
                 match List.find_opt (fun c -> c.in_fd = fd) !conns with
                 | Some conn when conn.reading -> read_conn t conn
                 | _ -> ())
             ready
       end
     done
   with e ->
     (* an I/O-loop failure still drains accepted work below *)
     Obs.Log.error "serve" "I/O loop failed: %s" (Printexc.to_string e));
  (* ----- graceful shutdown: refuse new work, drain accepted work ----- *)
  let drained = Jobq.length t.queue in
  Jobq.close t.queue;
  (match group with Some g -> Pool.join_group g | None -> ());
  (match listen_fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Option.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
      t.cfg.socket_path
  | None -> ());
  (match metrics_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter
    (fun c ->
      match c.kind with
      | `Stdio -> ()
      | `Socket -> ( try Unix.close c.in_fd with Unix.Unix_error _ -> ()))
    !conns;
  Option.iter Accesslog.close t.access;
  Obs.Log.info "serve" "shut down cleanly (drained %d queued job%s)" drained
    (if drained = 1 then "" else "s")
