(* `advisor top`: a live terminal dashboard over a serve daemon.

   Polls the socket's `metrics_raw` op (the typed, lossless snapshot
   encoding) at a fixed interval and renders request throughput, cache
   behaviour, queue pressure and a per-op latency table with SLO burn.  Rates come from counter deltas between
   consecutive samples, so the first frame shows totals only.

   Rendering is a pure function of two samples ([render]) so tests can
   pin the dashboard without a terminal or a live daemon. *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv
module Metrics = Obs.Metrics

type sample = { ts : float; snap : (string * Metrics.value) list }

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter i) -> i
  | _ -> 0

let gauge snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Gauge f) -> Some f
  | _ -> None

let histogram snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram h) -> Some h
  | _ -> None

(* Events per second for counter [name] between two samples; 0 without
   a previous sample (or a non-advancing clock). *)
let rate ~prev ~cur name =
  match prev with
  | None -> 0.
  | Some p ->
    let dt = cur.ts -. p.ts in
    if dt <= 0. then 0.
    else float_of_int (counter cur.snap name - counter p.snap name) /. dt

let pct num den = if den <= 0 then 0. else 100. *. float_of_int num /. float_of_int den

(* Ops present in the snapshot, discovered from their latency
   histograms ([serve.op.<op>.ns]) so `top` needs no op list of its
   own. *)
let ops_of snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Histogram _ ->
        let pre = "serve.op." and suf = ".ns" in
        let pl = String.length pre and sl = String.length suf in
        let n = String.length name in
        if n > pl + sl && String.sub name 0 pl = pre
           && String.sub name (n - sl) sl = suf
        then Some (String.sub name pl (n - pl - sl))
        else None
      | _ -> None)
    snap

let render ~prev ~cur =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let c name = counter cur.snap name in
  let requests = c "serve.requests" in
  line "advisor top — %d metric(s), sampled %.1fs apart"
    (List.length cur.snap)
    (match prev with None -> 0. | Some p -> cur.ts -. p.ts);
  line "";
  line "requests   total %-8d %6.1f req/s   ok %d  failed %d  timeout %d  overloaded %d"
    requests
    (rate ~prev ~cur "serve.requests")
    (c "serve.requests.ok") (c "serve.requests.failed")
    (c "serve.requests.timeout") (c "serve.requests.overloaded");
  let hits = c "serve.cache.hits" and misses = c "serve.cache.misses" in
  line "cache      hits %-6d misses %-6d hit %5.1f%%   entries %.0f  bytes %.0f"
    hits misses
    (pct hits (hits + misses))
    (Option.value (gauge cur.snap "serve.cache.entries") ~default:0.)
    (Option.value (gauge cur.snap "serve.cache.bytes") ~default:0.);
  let depth = Option.value (gauge cur.snap "serve.queue.depth") ~default:0. in
  (match histogram cur.snap "serve.request.wait_ns" with
  | Some w ->
    line "queue      depth %-5.0f wait p50 %s  p99 %s  max %s" depth
      (Obs.Trace.pp_duration (Metrics.percentile w 0.50))
      (Obs.Trace.pp_duration (Metrics.percentile w 0.99))
      (Obs.Trace.pp_duration w.Metrics.max_value)
  | None -> line "queue      depth %-5.0f" depth);
  let ops = ops_of cur.snap in
  if ops <> [] then begin
    line "";
    line "%-14s %8s %8s %10s %10s %10s %8s %6s" "op" "reqs" "req/s"
      "p50" "p95" "p99" "breach" "burn";
    List.iter
      (fun op ->
        match histogram cur.snap ("serve.op." ^ op ^ ".ns") with
        | None -> ()
        | Some h ->
          let breaches = c ("serve.slo." ^ op ^ ".breach") in
          line "%-14s %8d %8.1f %10s %10s %10s %8d %6.2f" op h.Metrics.count
            (rate ~prev ~cur ("serve.op." ^ op ^ ".ns" ^ ""))
            (Obs.Trace.pp_duration (Metrics.percentile h 0.50))
            (Obs.Trace.pp_duration (Metrics.percentile h 0.95))
            (Obs.Trace.pp_duration (Metrics.percentile h 0.99))
            breaches
            (Slo.burn ~breaches ~requests:h.Metrics.count))
      ops
  end;
  Buffer.contents b

(* ----- polling client ----- *)

(* One round trip on a fresh connection per poll: a stuck daemon then
   costs one interval, not the whole session. *)
let fetch socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let req = "{\"id\":\"top\",\"op\":\"metrics_raw\"}\n" in
      let n = String.length req in
      let written = ref 0 in
      while !written < n do
        written :=
          !written + Unix.write_substring fd req !written (n - !written)
      done;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec read_line () =
        let got = Unix.read fd chunk 0 (Bytes.length chunk) in
        if got = 0 then ()
        else begin
          Buffer.add_subbytes buf chunk 0 got;
          if not (Bytes.exists (fun ch -> ch = '\n') (Bytes.sub chunk 0 got))
          then read_line ()
        end
      in
      read_line ();
      let lines = String.split_on_char '\n' (Buffer.contents buf) in
      match lines with
      | line :: _ -> (
        match Jsonv.parse line with
        | Error e -> Error ("bad response: " ^ e)
        | Ok v -> (
          match Jsonv.member "result" v with
          | Some result ->
            Ok { ts = Unix.gettimeofday (); snap = Metricsenc.of_raw result }
          | None -> Error "response carried no result"))
      | [] -> Error "empty response")

let clear_screen = "\027[H\027[2J"

(* Run the dashboard: poll every [interval_ms], draw [frames] frames
   (None = until interrupted).  With a single frame the screen is not
   cleared, so `advisor top --once` composes with pipes. *)
let run ~socket_path ~interval_ms ~frames =
  let interval = float_of_int (max 50 interval_ms) /. 1000. in
  let prev = ref None in
  let n = ref 0 in
  let continue_ () = match frames with None -> true | Some k -> !n < k in
  while continue_ () do
    (match fetch socket_path with
    | Ok cur ->
      if frames <> Some 1 then print_string clear_screen;
      print_string (render ~prev:!prev ~cur);
      flush stdout;
      prev := Some cur
    | Error msg ->
      Printf.eprintf "top: %s (%s)\n%!" msg socket_path
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "top: %s (%s)\n%!" (Unix.error_message e) socket_path);
    incr n;
    if continue_ () then Unix.sleepf interval
  done
