(* The serve daemon end to end: protocol parsing, request routing, a
   live socket server (round-trips for every op, concurrency,
   backpressure, per-request timeouts, graceful shutdown), and
   regression tests for the concurrency bugfix sweep that shipped with
   it (overlapping cold compiles, pool budget safety on spawn failure,
   lenient env parsing). *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv
module Protocol = Serve.Protocol
module Router = Serve.Router
module Jobq = Serve.Jobq
module Server = Serve.Server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ----- protocol ----- *)

let test_parse_ok () =
  let line =
    {|{"id": 7, "op": "profile", "app": "nn", "arch": "pascal", "scale": 2, "timeout_ms": 500, "domains": 3, "instrument": "all", "ms": 10, "future_field": [1, 2]}|}
  in
  match Protocol.parse_request line with
  | Error (_, code, msg) -> Alcotest.failf "parse failed: %s %s" code msg
  | Ok r ->
    check_string "op" "profile" r.Protocol.op;
    check_bool "id" true (r.Protocol.id = Json.Int 7);
    check_string "app" "nn" (Option.get r.Protocol.app);
    check_string "arch" "pascal" r.Protocol.arch_name;
    check_int "scale" 2 (Option.get r.Protocol.scale);
    check_int "timeout_ms" 500 (Option.get r.Protocol.timeout_ms);
    check_int "domains" 3 (Option.get r.Protocol.domains);
    check_string "instrument" "all" (Option.get r.Protocol.instrument);
    check_int "ms" 10 (Option.get r.Protocol.ms)

let test_parse_defaults () =
  match Protocol.parse_request {|{"op": "ping"}|} with
  | Error _ -> Alcotest.fail "minimal request should parse"
  | Ok r ->
    check_bool "absent id is Null" true (r.Protocol.id = Json.Null);
    check_string "default arch" "kepler" r.Protocol.arch_name;
    check_bool "absent app" true (r.Protocol.app = None)

let test_parse_errors () =
  let code_of = function
    | Error (_, code, _) -> code
    | Ok _ -> "parsed"
  in
  check_string "garbage" "bad_request" (code_of (Protocol.parse_request "{nope"));
  check_string "non-object" "bad_request" (code_of (Protocol.parse_request "[1,2]"));
  check_string "missing op" "bad_request" (code_of (Protocol.parse_request "{}"));
  check_string "op not a string" "bad_request"
    (code_of (Protocol.parse_request {|{"op": 3}|}));
  check_string "scale not an int" "bad_request"
    (code_of (Protocol.parse_request {|{"op": "profile", "scale": "big"}|}));
  (* the id still comes back when the envelope parsed *)
  (match Protocol.parse_request {|{"id": "abc", "op": "profile", "ms": 1.5}|} with
  | Error (id, "bad_request", _) -> check_bool "id echoed" true (id = Json.String "abc")
  | _ -> Alcotest.fail "fractional ms should be a bad_request with the id")

let test_response_lines () =
  let ok = Protocol.to_line (Protocol.ok_response ~id:(Json.Int 1) ~op:"ping" (Json.Obj [])) in
  check_string "ok line" {|{"id":1,"ok":true,"op":"ping","result":{}}|} ok;
  let err =
    Protocol.to_line
      (Protocol.error_response ~id:Json.Null ~op:"?" ~code:"bad_request" "line\nbreak")
  in
  check_bool "responses never contain raw newlines" false
    (String.contains err '\n')

(* ----- router (no daemon) ----- *)

let test_validate () =
  let req line =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error (_, _, m) -> Alcotest.failf "setup parse: %s" m
  in
  let code line =
    match Router.validate (req line) with Ok () -> "ok" | Error (c, _) -> c
  in
  check_string "known op" "ok" (code {|{"op": "ping"}|});
  check_string "unknown op" "unknown_op" (code {|{"op": "frobnicate"}|});
  check_string "unknown app" "unknown_app" (code {|{"op": "profile", "app": "doom"}|});
  check_string "missing app" "bad_request" (code {|{"op": "profile"}|});
  check_string "unknown arch" "unknown_arch"
    (code {|{"op": "profile", "app": "nn", "arch": "volta"}|});
  check_string "app op with everything" "ok" (code {|{"op": "check", "app": "nn"}|});
  check_string "profile accepts tier static" "ok"
    (code {|{"op": "profile", "app": "nn", "tier": "static"}|});
  check_string "profile accepts tier exact" "ok"
    (code {|{"op": "profile", "app": "nn", "tier": "exact"}|});
  check_string "profile_fast is an op" "ok"
    (code {|{"op": "profile_fast", "app": "nn"}|});
  check_string "profile_fast rejects tier exact" "bad_request"
    (code {|{"op": "profile_fast", "app": "nn", "tier": "exact"}|});
  check_string "unknown tier rejected" "bad_request"
    (code {|{"op": "profile", "app": "nn", "tier": "fuzzy"}|});
  check_string "tier on a non-tiered op rejected" "bad_request"
    (code {|{"op": "check", "app": "nn", "tier": "static"}|})

let dispatch line =
  match Protocol.parse_request line with
  | Ok r -> Router.dispatch r
  | Error (_, _, m) -> Alcotest.failf "setup parse: %s" m

let test_dispatch_ping_list () =
  (match dispatch {|{"op": "ping"}|} with
  | Ok (Json.Obj fields) -> check_bool "pong" true (List.assoc "pong" fields = Json.Bool true)
  | _ -> Alcotest.fail "ping should return an object");
  match dispatch {|{"op": "list"}|} with
  | Ok (Json.Obj fields) ->
    let names = function
      | Json.List l -> List.map (function Json.String s -> s | _ -> "?") l
      | _ -> []
    in
    check_bool "nn listed" true (List.mem "nn" (names (List.assoc "apps" fields)));
    check_bool "archs listed" true
      (List.mem "pascal" (names (List.assoc "archs" fields)))
  | _ -> Alcotest.fail "list should return an object"

let test_dispatch_bad_fields () =
  let code line =
    match dispatch line with Error (c, _) -> c | Ok _ -> "ok" in
  check_string "sleep needs ms" "bad_request" (code {|{"op": "sleep"}|});
  check_string "bad instrument" "bad_request"
    (code {|{"op": "compile", "app": "nn", "instrument": "wat"}|})

(* ----- a live daemon over a Unix socket ----- *)

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "advisor-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Run [f client_socket_path] against a daemon on its own domain; shut
   it down and join afterwards, whatever happens. *)
let with_server ?(workers = 2) ?(queue = 16) ?timeout_ms ?cache
    ?(extra = fun c -> c) f =
  let path = fresh_socket_path () in
  let cfg =
    extra
      {
        Server.default_config with
        socket_path = Some path;
        stdio = false;
        workers;
        queue_cap = queue;
        default_timeout_ms = timeout_ms;
        cache;
      }
  in
  let srv = Server.create cfg in
  let daemon = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown srv;
      Domain.join daemon;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path srv)

let connect path =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ENOTSOCK), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let send fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

(* Read exactly [n] response lines (any order), failing loudly on EOF
   or a 120 s stall. *)
let read_lines ?(timeout = 120.) fd n =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let buf = Bytes.create 65536 in
  let pending = ref "" in
  let lines = ref [] in
  while List.length !lines < n do
    let r = Unix.read fd buf 0 (Bytes.length buf) in
    if r = 0 then
      Alcotest.failf "server closed the connection after %d/%d responses"
        (List.length !lines) n;
    let rec go = function
      | [ last ] -> pending := last
      | line :: rest ->
        if String.trim line <> "" then lines := !lines @ [ line ];
        go rest
      | [] -> pending := ""
    in
    go (String.split_on_char '\n' (!pending ^ Bytes.sub_string buf 0 r))
  done;
  !lines

let parse_resp line =
  match Jsonv.parse line with
  | Ok v -> v
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let field name v =
  match Jsonv.member name v with
  | Some f -> f
  | None -> Alcotest.failf "response is missing field %S" name

let resp_ok v = field "ok" v = Jsonv.Bool true

let resp_err_code v =
  match Jsonv.member "code" (field "error" v) with
  | Some (Jsonv.Str s) -> s
  | _ -> Alcotest.fail "error response without a code"

(* Collect [n] responses into an (id -> response) table; ids in these
   tests are always small ints. *)
let collect fd n =
  let lines = read_lines fd n in
  List.map
    (fun line ->
      let v = parse_resp line in
      match field "id" v with
      | Jsonv.Num f -> (int_of_float f, (line, v))
      | Jsonv.Null -> (-1, (line, v))
      | _ -> Alcotest.failf "unexpected id in %S" line)
    lines

(* The served profile response must be byte-identical to the one-shot
   CLI's --json output wrapped in the response envelope. *)
let expected_profile_nn_line ~id =
  let w = Workloads.Registry.find "nn" in
  let arch = Option.get (Gpusim.Arch.of_name "kepler") in
  let session = Advisor.profile ~arch w in
  let report =
    Analysis.Report.of_profile ~app:w.Workloads.Common.name
      ~arch_name:arch.Gpusim.Arch.name ~line_size:arch.Gpusim.Arch.line_size
      session.Advisor.profiler
  in
  Protocol.to_line (Protocol.ok_response ~id:(Json.Int id) ~op:"profile" report)

let test_roundtrip_every_op () =
  with_server ~workers:2 (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 0, "op": "ping"}|};
      send fd {|{"id": 1, "op": "list"}|};
      send fd {|{"id": 2, "op": "metrics"}|};
      send fd {|{"id": 3, "op": "sleep", "ms": 5}|};
      send fd {|{"id": 4, "op": "compile", "app": "nn", "instrument": "profile"}|};
      send fd {|{"id": 5, "op": "profile", "app": "nn"}|};
      send fd {|{"id": 6, "op": "check", "app": "nn"}|};
      send fd {|{"id": 7, "op": "bypass", "app": "nn"}|};
      let by_id = collect fd 8 in
      Unix.close fd;
      for i = 0 to 7 do
        let line, v = List.assoc i by_id in
        check_bool (Printf.sprintf "request %d ok (%s)" i line) true (resp_ok v)
      done;
      (* spot-check op-specific payloads *)
      let result i = field "result" (snd (List.assoc i by_id)) in
      (match Jsonv.member "kernels" (result 4) with
      | Some (Jsonv.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "compile response lists kernels");
      (match Jsonv.member "error_count" (result 6) with
      | Some (Jsonv.Num _) -> ()
      | _ -> Alcotest.fail "check response carries an error count");
      (match Jsonv.member "oracle" (result 7) with
      | Some _ -> ()
      | None -> Alcotest.fail "bypass response carries the oracle"))

let test_served_profile_matches_oneshot () =
  with_server ~workers:2 (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 11, "op": "profile", "app": "nn"}|};
      let line = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_string "served profile == one-shot report" (expected_profile_nn_line ~id:11)
        line)

let test_malformed_and_unknown_over_socket () =
  with_server ~workers:1 (fun path _srv ->
      let fd = connect path in
      send fd "this is not json";
      send fd {|{"id": 1, "op": "frobnicate"}|};
      send fd {|{"id": 2, "op": "profile", "app": "doom"}|};
      let by_id = collect fd 3 in
      Unix.close fd;
      let code i = resp_err_code (snd (List.assoc i by_id)) in
      check_string "garbage line" "bad_request" (code (-1));
      check_string "unknown op" "unknown_op" (code 1);
      check_string "unknown app" "unknown_app" (code 2))

(* >= 8 profile requests in flight at once, all answered correctly and
   identically to the one-shot report. *)
let test_concurrent_profiles () =
  with_server ~workers:8 (fun path _srv ->
      let fd = connect path in
      for i = 0 to 7 do
        send fd (Printf.sprintf {|{"id": %d, "op": "profile", "app": "nn"}|} i)
      done;
      let by_id = collect fd 8 in
      Unix.close fd;
      for i = 0 to 7 do
        check_string
          (Printf.sprintf "profile %d matches the one-shot report" i)
          (expected_profile_nn_line ~id:i)
          (fst (List.assoc i by_id))
      done)

(* One worker busy + one queue slot full => further requests are
   rejected immediately with "overloaded", and the accepted ones still
   complete. *)
let test_overloaded () =
  with_server ~workers:1 ~queue:1 (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 0, "op": "sleep", "ms": 600}|};
      (* let the single worker pop request 0 off the queue *)
      Unix.sleepf 0.2;
      send fd {|{"id": 1, "op": "sleep", "ms": 10}|};
      (* queue now holds request 1; these two must bounce *)
      send fd {|{"id": 2, "op": "sleep", "ms": 10}|};
      send fd {|{"id": 3, "op": "sleep", "ms": 10}|};
      let by_id = collect fd 4 in
      Unix.close fd;
      check_bool "slow request completed" true (resp_ok (snd (List.assoc 0 by_id)));
      check_bool "queued request completed" true (resp_ok (snd (List.assoc 1 by_id)));
      check_string "third rejected" "overloaded" (resp_err_code (snd (List.assoc 2 by_id)));
      check_string "fourth rejected" "overloaded" (resp_err_code (snd (List.assoc 3 by_id))))

(* A per-request deadline kills that request (code "timeout") without
   taking the daemon down: both a diagnostic sleep and a real
   simulation get cancelled, and the daemon keeps answering. *)
let test_timeout_leaves_daemon_alive () =
  with_server ~workers:2 (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 0, "op": "sleep", "ms": 60000, "timeout_ms": 100}|};
      send fd {|{"id": 1, "op": "profile", "app": "bfs", "timeout_ms": 1}|};
      let by_id = collect fd 2 in
      check_string "sleep timed out" "timeout" (resp_err_code (snd (List.assoc 0 by_id)));
      check_string "simulation timed out" "timeout"
        (resp_err_code (snd (List.assoc 1 by_id)));
      (* the daemon survived both cancellations *)
      send fd {|{"id": 2, "op": "profile", "app": "nn"}|};
      let line = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_string "daemon still serves correct results"
        (expected_profile_nn_line ~id:2) line)

(* Graceful shutdown drains accepted work: requests enqueued before the
   stop are answered, then [run] returns. *)
let test_shutdown_drains () =
  with_server ~workers:1 (fun path srv ->
      let fd = connect path in
      send fd {|{"id": 0, "op": "sleep", "ms": 300}|};
      send fd {|{"id": 1, "op": "sleep", "ms": 50}|};
      (* both lines are on the daemon's side of the socket; give the
         select loop a beat to enqueue them, then pull the plug *)
      Unix.sleepf 0.15;
      Server.request_shutdown srv;
      let by_id = collect fd 2 in
      Unix.close fd;
      check_bool "in-flight request drained" true (resp_ok (snd (List.assoc 0 by_id)));
      check_bool "queued request drained" true (resp_ok (snd (List.assoc 1 by_id))))

(* ----- the content-addressed result cache ----- *)

let metric_counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter i) -> i
  | _ -> 0

let fresh_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "advisor-rescache-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* A hot request is answered from the cache byte-for-byte (including a
   *different* id spliced around the cached payload) without launching
   a single simulation. *)
let test_cache_hit_byte_identical_no_launches () =
  (* computed first: this launches simulations of its own *)
  let expected_cold = expected_profile_nn_line ~id:31 in
  let expected_hot = expected_profile_nn_line ~id:32 in
  with_server ~workers:2 ~cache:Serve.Rescache.default_config (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 31, "op": "profile", "app": "nn"}|};
      let cold = List.hd (read_lines fd 1) in
      check_string "cold response matches the one-shot report" expected_cold cold;
      let launches0 = metric_counter "sim.launches" in
      let hits0 = metric_counter "serve.cache.hits" in
      send fd {|{"id": 32, "op": "profile", "app": "nn"}|};
      let hot = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_string "hot response matches the one-shot report" expected_hot hot;
      check_int "hot response is a cache hit" (hits0 + 1)
        (metric_counter "serve.cache.hits");
      check_int "hot response launched zero simulations" launches0
        (metric_counter "sim.launches"))

(* The static tier answers from the intake domain: a [profile_fast]
   round-trip launches zero simulations, matches the one-shot
   estimate byte for byte, and its spelled-out twin
   [profile + tier:static] is served from the same cache entry — while
   an exact profile of the same app still simulates. *)
let test_profile_fast_roundtrip_no_launches () =
  let w = Workloads.Registry.find "nn" in
  let arch = Option.get (Gpusim.Arch.of_name "kepler") in
  let raw = Json.to_string (Advisor.estimate_json ~arch w) in
  let expected ~id ~op =
    Protocol.ok_line_raw ~id:(Json.Int id) ~op raw
  in
  with_server ~workers:2 ~cache:Serve.Rescache.default_config (fun path _srv ->
      let fd = connect path in
      let launches0 = metric_counter "sim.launches" in
      let static0 = metric_counter "serve.static.hits" in
      send fd {|{"id": 41, "op": "profile_fast", "app": "nn"}|};
      let cold = List.hd (read_lines fd 1) in
      check_string "estimate matches the one-shot encoder"
        (expected ~id:41 ~op:"profile_fast") cold;
      check_int "zero simulator launches" launches0
        (metric_counter "sim.launches");
      check_int "answered by the static path" (static0 + 1)
        (metric_counter "serve.static.hits");
      let hits0 = metric_counter "serve.cache.hits" in
      send fd {|{"id": 42, "op": "profile", "app": "nn", "tier": "static"}|};
      let hot = List.hd (read_lines fd 1) in
      check_string "spelled-out static tier splices the same bytes"
        (expected ~id:42 ~op:"profile") hot;
      check_int "served from the shared cache entry" (hits0 + 1)
        (metric_counter "serve.cache.hits");
      check_int "still zero simulator launches" launches0
        (metric_counter "sim.launches");
      (* an exact profile of the same app must NOT see the static entry *)
      send fd {|{"id": 43, "op": "profile", "app": "nn"}|};
      let exact = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_bool "exact profile is not the cached estimate" false
        (String.equal exact (expected ~id:43 ~op:"profile"));
      check_bool "exact profile simulated" true
        (metric_counter "sim.launches" > launches0))

(* Requests that spell out the defaults, reorder fields, or vary
   id/timeout share the cold request's cache entry; a different scale
   does not. *)
let test_cache_defaults_and_reordering_share_entry () =
  with_server ~workers:2 ~cache:Serve.Rescache.default_config (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 0, "op": "check", "app": "nn"}|};
      ignore (read_lines fd 1);
      let hits0 = metric_counter "serve.cache.hits" in
      let w = Workloads.Registry.find "nn" in
      send fd
        (Printf.sprintf
           {|{"scale": %d, "app": "nn", "arch": "kepler-16k", "op": "check", "timeout_ms": 99999, "id": "other"}|}
           w.Workloads.Common.default_scale);
      ignore (read_lines fd 1);
      check_int "defaults spelled out + reordered fields still hit" (hits0 + 1)
        (metric_counter "serve.cache.hits");
      send fd
        (Printf.sprintf {|{"id": 2, "op": "check", "app": "nn", "scale": %d}|}
           (w.Workloads.Common.default_scale + 1));
      ignore (read_lines fd 1);
      Unix.close fd;
      check_int "a different scale is a different entry" (hits0 + 1)
        (metric_counter "serve.cache.hits"))

let test_lru_eviction_bounds () =
  let open Serve.Rescache in
  (* entry bound *)
  let c = create { max_entries = 3; max_bytes = 1024 * 1024; dir = None } in
  store c "k1" "one";
  store c "k2" "two";
  store c "k3" "three";
  check_bool "k1 resident" true (find c "k1" <> None);
  (* k1 was just touched: k2 is now least recent and must evict *)
  store c "k4" "four";
  check_int "entry bound holds" 3 (entries c);
  check_bool "least-recently-used entry evicted" true (find c "k2" = None);
  check_bool "recently-touched entry survives" true (find c "k1" <> None);
  (* byte bound *)
  let c = create { max_entries = 100; max_bytes = 10; dir = None } in
  store c "b1" "12345678";
  store c "b2" "12345678";
  check_int "byte bound evicts to fit" 1 (entries c);
  check_bool "newest entry kept" true (find c "b2" <> None);
  check_bool "bytes within bound" true (bytes c <= 10);
  (* an entry larger than the whole byte budget is never resident *)
  store c "huge" (String.make 64 'x');
  check_int "oversized entry is not cached" 0 (entries c)

let test_disk_tier_restart_roundtrip () =
  let open Serve.Rescache in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = { max_entries = 16; max_bytes = 1024 * 1024; dir = Some dir } in
      let c1 = create cfg in
      store c1 "alpha" {|{"v": 1}|};
      store c1 "beta" {|{"v": 2}|};
      (* a fresh instance on the same dir = a daemon restart *)
      let loads0 = metric_counter "serve.cache.loads" in
      let c2 = create cfg in
      check_int "restart reloaded both entries" (loads0 + 2)
        (metric_counter "serve.cache.loads");
      check_bool "alpha survives the restart" true
        (find c2 "alpha" = Some {|{"v": 1}|});
      check_bool "beta survives the restart" true
        (find c2 "beta" = Some {|{"v": 2}|});
      (* memory eviction falls back to the disk tier *)
      let small =
        create { max_entries = 1; max_bytes = 1024 * 1024; dir = Some dir }
      in
      store small "gamma" {|{"v": 3}|};
      (* gamma displaced whatever the startup load kept; an evicted
         key must still be served from its file *)
      check_bool "memory miss falls back to disk" true
        (find small "alpha" = Some {|{"v": 1}|}))

let test_corrupt_cache_files_skipped () =
  let open Serve.Rescache in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = { max_entries = 16; max_bytes = 1024 * 1024; dir = Some dir } in
      let c1 = create cfg in
      store c1 "good" {|{"ok": true}|};
      (* sabotage: garbage, a truncated entry, and a flipped payload *)
      let write name content =
        let oc = open_out_bin (Filename.concat dir name) in
        output_string oc content;
        close_out oc
      in
      write "0123456789abcdef0123456789abcdef" "total garbage";
      write "fedcba9876543210fedcba9876543210"
        "cudaadvisor-rescache 1 00000000000000000000000000000000 9999\ntrunc\n{";
      let corrupt0 = metric_counter "serve.cache.corrupt" in
      let c2 = create cfg in
      check_bool "good entry still loads" true
        (find c2 "good" = Some {|{"ok": true}|});
      check_bool "corrupt files were counted and skipped" true
        (metric_counter "serve.cache.corrupt" >= corrupt0 + 2))

(* ----- cache keys ----- *)

(* [Advisor.result_key] sorts its field list before hashing, so the key
   is invariant under any permutation of the extra fields. *)
let qcheck_key_stable_under_reordering =
  QCheck2.Test.make ~name:"result key is stable under field reordering"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 6)
           (pair
              (string_size ~gen:printable (int_range 1 8))
              (string_size ~gen:printable (int_range 0 12))))
        int)
    (fun (extra, seed) ->
      (* a deterministic shuffle driven by the generated seed *)
      let shuffled =
        List.map snd
          (List.sort compare
             (List.mapi (fun i kv -> ((i * seed * 2654435761) land 0xffff, i, kv)) extra
             |> List.map (fun (h, i, kv) -> ((h, i), kv))))
      in
      Advisor.result_key ~op:"profile" ~app:"nn" ~arch_name:"kepler" ~scale:1
        ~extra ~source:"__global__ void k() {}" ()
      = Advisor.result_key ~op:"profile" ~app:"nn" ~arch_name:"kepler" ~scale:1
          ~extra:shuffled ~source:"__global__ void k() {}" ())

let qcheck_canonical_source_whitespace =
  QCheck2.Test.make
    ~name:"keys ignore line endings and trailing whitespace" ~count:200
    QCheck2.Gen.(list_size (int_range 1 8) (string_size ~gen:printable (int_range 0 12)))
    (fun lines ->
      (* strip what canonicalization strips, then re-decorate randomly *)
      let base = List.map (fun l -> String.concat "" (String.split_on_char '\r' l)) lines in
      let plain = String.concat "\n" base in
      let decorated = String.concat "\r\n" (List.map (fun l -> l ^ "  \t") base) ^ "\n\n" in
      let key source =
        Advisor.result_key ~op:"check" ~app:"nn" ~arch_name:"kepler" ~scale:1
          ~source ()
      in
      key plain = key decorated)

let test_cachekey_of_request () =
  let req line =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error (_, c, m) -> Alcotest.failf "bad test request (%s: %s)" c m
  in
  let key line = Serve.Cachekey.of_request (req line) in
  let k_implicit = key {|{"id": 1, "op": "profile", "app": "nn"}|} in
  check_bool "cacheable op yields a key" true (k_implicit <> None);
  check_bool "defaults filled: explicit arch/scale gives the same key" true
    (let w = Workloads.Registry.find "nn" in
     key
       (Printf.sprintf
          {|{"id": 2, "op": "profile", "app": "nn", "arch": "kepler", "scale": %d, "timeout_ms": 5}|}
          w.Workloads.Common.default_scale)
     = k_implicit);
  check_bool "arch aliases collapse" true
    (key {|{"op": "profile", "app": "nn", "arch": "kepler-16k"}|} = k_implicit);
  check_bool "another arch is another key" true
    (key {|{"op": "profile", "app": "nn", "arch": "pascal"}|} <> k_implicit);
  check_bool "another op is another key" true
    (key {|{"op": "check", "app": "nn"}|} <> k_implicit);
  check_bool "non-cacheable ops have no key" true
    (key {|{"op": "metrics"}|} = None
    && key {|{"op": "compile", "app": "nn"}|} = None);
  check_bool "unknown app has no key" true
    (key {|{"op": "profile", "app": "doom"}|} = None)

(* Bugfix regression: the answer tier is part of the cache key, so a
   cached static estimate can never answer an exact profile request (or
   the reverse), while the two spellings of a static profile share one
   entry. *)
let test_cachekey_tier_separation () =
  let req line =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error (_, c, m) -> Alcotest.failf "bad test request (%s: %s)" c m
  in
  let key line =
    match Serve.Cachekey.of_request (req line) with
    | Some k -> k
    | None -> Alcotest.failf "expected a cache key for %s" line
  in
  let exact = key {|{"op": "profile", "app": "nn"}|} in
  let exact_spelled = key {|{"op": "profile", "app": "nn", "tier": "exact"}|} in
  let static = key {|{"op": "profile", "app": "nn", "tier": "static"}|} in
  let fast = key {|{"op": "profile_fast", "app": "nn"}|} in
  let fast_spelled = key {|{"op": "profile_fast", "app": "nn", "tier": "static"}|} in
  check_bool "static tier never shares the exact entry" false (String.equal static exact);
  check_string "tier default is exact" exact exact_spelled;
  check_string "profile_fast is the static entry" static fast;
  check_string "profile_fast with tier spelled out too" static fast_spelled

(* ----- stale socket files ----- *)

let test_stale_socket_recovered () =
  let path = fresh_socket_path () in
  (* a killed daemon leaves the file behind: bind, then close without
     unlinking — connects now get ECONNREFUSED *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  check_bool "stale socket file exists" true (Sys.file_exists path);
  let cfg =
    {
      Server.default_config with
      socket_path = Some path;
      stdio = false;
      workers = 1;
      queue_cap = 4;
      default_timeout_ms = None;
      cache = None;
    }
  in
  let srv = Server.create cfg in
  let daemon = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown srv;
      Domain.join daemon;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let fd = connect path in
      send fd {|{"id": 1, "op": "ping"}|};
      let line = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_bool "daemon reclaimed the stale socket and serves" true
        (resp_ok (parse_resp line)))

let test_live_socket_refused () =
  with_server ~workers:1 (fun path _srv ->
      (* the daemon binds its socket from a freshly spawned domain; make
         sure it owns the path before the second daemon probes it, or
         the probe can win the race, see ENOENT and claim the path *)
      let fd0 = connect path in
      send fd0 {|{"id": 0, "op": "ping"}|};
      ignore (read_lines fd0 1);
      Unix.close fd0;
      let cfg =
        {
          Server.default_config with
          socket_path = Some path;
          stdio = false;
          workers = 1;
          queue_cap = 4;
          default_timeout_ms = None;
          cache = None;
        }
      in
      let srv2 = Server.create cfg in
      match Server.run srv2 with
      | () -> Alcotest.fail "a second daemon must refuse a live socket"
      | exception Failure msg ->
        check_bool "the error names the live daemon" true
          (let rec has i =
             i + 4 <= String.length msg
             && (String.sub msg i 4 = "live" || has (i + 1))
           in
           has 0);
        (* the probe must not have stolen the path from the live daemon *)
        let fd = connect path in
        send fd {|{"id": 1, "op": "ping"}|};
        let line = List.hd (read_lines fd 1) in
        Unix.close fd;
        check_bool "first daemon unharmed" true (resp_ok (parse_resp line)))

(* ----- telemetry: metrics ops, exposition endpoint, access log, SLOs ----- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_metrics_ops () =
  with_server ~workers:1 (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 1, "op": "ping"}|};
      ignore (read_lines fd 1);
      (* flat shape: counters as numbers, histograms as objects with
         monotone derived percentiles and the raw buckets *)
      send fd {|{"id": 2, "op": "metrics"}|};
      let flat = field "result" (parse_resp (List.hd (read_lines fd 1))) in
      (match Jsonv.member "serve.requests" flat with
      | Some (Jsonv.Num n) -> check_bool "requests counted" true (n >= 1.)
      | _ -> Alcotest.fail "serve.requests missing from metrics");
      (match Jsonv.member "serve.op.ping.ns" flat with
      | Some h ->
        let num k =
          match Jsonv.member k h with
          | Some (Jsonv.Num f) -> f
          | _ -> Alcotest.failf "serve.op.ping.ns lacks %s" k
        in
        check_bool "p50 <= p95 <= p99 <= max" true
          (num "p50" <= num "p95"
          && num "p95" <= num "p99"
          && num "p99" <= num "max");
        (match Jsonv.member "buckets" h with
        | Some (Jsonv.Obj (_ :: _)) -> ()
        | _ -> Alcotest.fail "histogram carries no buckets")
      | None -> Alcotest.fail "per-op latency histogram missing");
      (* typed shape: decodes back into a snapshot losslessly *)
      send fd {|{"id": 3, "op": "metrics_raw"}|};
      let raw = field "result" (parse_resp (List.hd (read_lines fd 1))) in
      let snap = Serve.Metricsenc.of_raw raw in
      check_bool "raw decodes counters" true
        (match List.assoc_opt "serve.requests" snap with
        | Some (Obs.Metrics.Counter n) -> n >= 1
        | _ -> false);
      check_bool "raw decodes histograms with buckets" true
        (match List.assoc_opt "serve.op.ping.ns" snap with
        | Some (Obs.Metrics.Histogram h) ->
          h.Obs.Metrics.count >= 1 && h.Obs.Metrics.filled <> []
        | _ -> false);
      Unix.close fd)

(* The HTTP exposition endpoint: a TCP scrape gets a 0.0.4 text page
   whose every line is a comment or "name value". *)
let test_exposition_endpoint () =
  let port = 18200 + (Unix.getpid () mod 1000) in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  with_server ~workers:1
    ~extra:(fun c -> { c with Server.metrics_addr = Some addr })
    (fun path _srv ->
      let fd = connect path in
      send fd {|{"id": 1, "op": "ping"}|};
      ignore (read_lines fd 1);
      Unix.close fd;
      let tcp = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect tcp
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring tcp req 0 (String.length req));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read tcp chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      Unix.setsockopt_float tcp Unix.SO_RCVTIMEO 10.0;
      drain ();
      Unix.close tcp;
      let resp = Buffer.contents buf in
      check_bool "HTTP 200" true (contains resp "200 OK");
      check_bool "prometheus content type" true
        (contains resp "text/plain; version=0.0.4");
      (* body starts after the blank line of the header block *)
      let body =
        let rec find i =
          if i + 3 >= String.length resp then String.length resp
          else if String.sub resp i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let s = find 0 in
        String.sub resp s (String.length resp - s)
      in
      check_bool "body mentions serve_requests" true
        (contains body "serve_requests");
      List.iter
        (fun line ->
          let ok =
            line = ""
            || line.[0] = '#'
            || (match String.rindex_opt line ' ' with
               | None -> false
               | Some i ->
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
                 <> None)
          in
          check_bool (Printf.sprintf "line parses: %s" line) true ok)
        (String.split_on_char '\n' body))

let test_access_log () =
  let log_path = Filename.temp_file "advisor-access" ".ndjson" in
  Sys.remove log_path;
  with_server ~workers:1
    ~extra:(fun c -> { c with Server.access_log = Some log_path })
    (fun path _srv ->
      let fd = connect path in
      for i = 1 to 4 do
        send fd (Printf.sprintf {|{"id": %d, "op": "ping"}|} i);
        ignore (read_lines fd 1)
      done;
      Unix.close fd;
      let ic = open_in log_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      check_int "one line per request" 4 (List.length !lines);
      List.iter
        (fun line ->
          let v = parse_resp line in
          check_bool "entry has op=ping" true
            (Jsonv.member "op" v = Some (Jsonv.Str "ping"));
          check_bool "entry has outcome=ok" true
            (Jsonv.member "outcome" v = Some (Jsonv.Str "ok"));
          check_bool "entry has total_ns" true
            (match Jsonv.member "total_ns" v with
            | Some (Jsonv.Num _) -> true
            | _ -> false))
        !lines);
  Sys.remove log_path

let test_slo_accounting () =
  let before =
    Obs.Metrics.counter_value (Serve.Slo.breaches "ping")
  in
  (* within target: no breach *)
  Serve.Slo.observe ~op:"ping" ~total_ns:1_000_000;
  check_int "fast request burns nothing" before
    (Obs.Metrics.counter_value (Serve.Slo.breaches "ping"));
  (* over the 50 ms ping target: one breach *)
  Serve.Slo.observe ~op:"ping" ~total_ns:90_000_000;
  check_int "slow request breaches" (before + 1)
    (Obs.Metrics.counter_value (Serve.Slo.breaches "ping"));
  (* untargeted op never breaches *)
  Serve.Slo.observe ~op:"sleep" ~total_ns:max_int;
  (* burn: breaches against the (1 - objective) budget *)
  check_bool "burn of 1 breach in 100 requests = 1.0" true
    (Float.abs (Serve.Slo.burn ~breaches:1 ~requests:100 -. 1.0) < 1e-9);
  check_bool "burn without traffic is 0" true
    (Serve.Slo.burn ~breaches:0 ~requests:0 = 0.)

(* ----- serve --trace, end to end -----

   Drives the real CLI binary as a subprocess: tracing is
   process-global, so an in-process daemon would mix in the spans of
   every other test in this runner. *)

let cli_binary () =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "advisor_cli.exe"

(* A cold exact profile, the same request again (a cache hit answered
   at intake) and a static-tier profile_fast through `advisor serve
   --trace FILE`: the Chrome trace written on SIGTERM holds one
   serve:intake span per request, all on the intake domain, and the
   exact profile ran on a worker domain. *)
let test_serve_trace_phases () =
  let cli = cli_binary () in
  if not (Sys.file_exists cli) then Alcotest.skip ();
  let trace_file = Filename.temp_file "advisor-serve-trace" ".json" in
  let path = fresh_socket_path () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; path; "--workers"; "2"; "--trace"; trace_file |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let stopped = ref false in
  let stop_once () =
    if not !stopped then begin
      stopped := true;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.unlink path with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop_once ();
      if Sys.file_exists trace_file then Sys.remove trace_file)
    (fun () ->
      let fd = connect path in
      let answer line =
        send fd line;
        let v = parse_resp (List.hd (read_lines fd 1)) in
        check_bool (Printf.sprintf "%s ok" line) true (resp_ok v)
      in
      answer {|{"id": 1, "op": "profile", "app": "nn"}|};
      answer {|{"id": 2, "op": "profile", "app": "nn"}|};
      answer {|{"id": 3, "op": "profile_fast", "app": "bfs"}|};
      Unix.close fd;
      (* the trace is exported on clean shutdown *)
      stop_once ();
      let text = In_channel.with_open_bin trace_file In_channel.input_all in
      let events =
        match Jsonv.parse text with
        | Ok (Jsonv.Arr l) -> l
        | Ok _ -> Alcotest.fail "trace is not a JSON array"
        | Error e -> Alcotest.failf "trace does not parse: %s" e
      in
      let str k e = Option.bind (Jsonv.member k e) Jsonv.to_string_opt in
      let tid e =
        match Jsonv.member "tid" e with
        | Some (Jsonv.Num f) -> int_of_float f
        | _ -> Alcotest.fail "span event without a tid"
      in
      (* every B has its E, innermost first, on the same tid *)
      let open_spans = Hashtbl.create 4 in
      List.iter
        (fun e ->
          match str "ph" e with
          | Some "B" ->
            let t = tid e in
            Hashtbl.replace open_spans t
              (str "name" e
              :: Option.value (Hashtbl.find_opt open_spans t) ~default:[])
          | Some "E" -> (
            let t = tid e in
            match Hashtbl.find_opt open_spans t with
            | Some (name :: rest) when name = str "name" e ->
              Hashtbl.replace open_spans t rest
            | _ -> Alcotest.failf "E does not close the innermost B on tid %d" t)
          | _ -> ())
        events;
      Hashtbl.iter
        (fun t stack -> check_int (Printf.sprintf "spans left open on tid %d" t) 0
            (List.length stack))
        open_spans;
      let begins name =
        List.filter (fun e -> str "ph" e = Some "B" && str "name" e = Some name) events
      in
      let intake = begins "serve:intake" in
      check_int "one serve:intake span per request" 3 (List.length intake);
      check_int "the cache hit never reached a worker" 1
        (List.length (begins "serve:profile"));
      check_int "profile_fast answered by the static tier" 1
        (List.length (begins "serve:static"));
      let intake_tids = List.sort_uniq compare (List.map tid intake) in
      check_int "intake runs on one domain" 1 (List.length intake_tids);
      check_bool "serve:profile ran on a worker domain" true
        (List.for_all
           (fun e -> not (List.mem (tid e) intake_tids))
           (begins "serve:profile")))

(* ----- jobq ----- *)

let test_jobq () =
  let q = Jobq.create ~cap:2 in
  check_int "capacity" 2 (Jobq.capacity q);
  check_bool "push 1" true (Jobq.try_push q 1 = `Ok);
  check_bool "push 2" true (Jobq.try_push q 2 = `Ok);
  check_bool "push 3 bounces" true (Jobq.try_push q 3 = `Full);
  check_bool "pop 1" true (Jobq.pop q = Some 1);
  check_bool "push 4 after pop" true (Jobq.try_push q 4 = `Ok);
  Jobq.close q;
  check_bool "push after close" true (Jobq.try_push q 5 = `Closed);
  check_bool "drains after close" true (Jobq.pop q = Some 2);
  check_bool "drains after close (2)" true (Jobq.pop q = Some 4);
  check_bool "then says closed" true (Jobq.pop q = None)

(* ----- bugfix: concurrent cold compiles of distinct keys overlap ----- *)

let gen_source ~tag n =
  let b = Buffer.create (n * 160) in
  for i = 0 to n - 1 do
    Printf.bprintf b
      "__global__ void k%d_%s(float* a, int n) {\n\
      \  int i = blockDim.x * blockIdx.x + threadIdx.x;\n\
      \  if (i < n) { a[i] = a[i] * %d.0 + 1.0; }\n\
       }\n"
      i tag (i + 1)
  done;
  Buffer.contents b

(* Deterministic overlap proof: misses are counted when a compile
   *claims* its key (before the work), so once the big compile's miss
   is visible it holds no lock — under the old whole-cache lock the
   small compile below would block behind it and [big_done] would
   already be true when it returned. *)
let test_cold_compiles_overlap () =
  let _, m0 = Advisor.compile_cache_stats () in
  let big_done = Atomic.make false in
  let big =
    Domain.spawn (fun () ->
        let c =
          Advisor.compile_source ~file:"overlap-big.cu" (gen_source ~tag:"big" 3000)
        in
        Atomic.set big_done true;
        List.length c.Advisor.prog.Ptx.Isa.funcs)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    snd (Advisor.compile_cache_stats ()) < m0 + 1
    && Unix.gettimeofday () < deadline
  do
    Domain.cpu_relax ()
  done;
  check_int "big compile claimed its key" (m0 + 1)
    (snd (Advisor.compile_cache_stats ()));
  let small =
    Advisor.compile_source ~file:"overlap-small.cu" (gen_source ~tag:"small" 40)
  in
  let overlapped = not (Atomic.get big_done) in
  check_int "small compile finished" 40
    (List.length small.Advisor.prog.Ptx.Isa.funcs);
  check_int "big compile finished" 3000 (Domain.join big);
  check_bool "distinct cold compiles ran concurrently" true overlapped;
  check_int "two misses total" (m0 + 2) (snd (Advisor.compile_cache_stats ()))

(* Duplicate keys still compile exactly once: the loser waits for the
   winner's slot instead of redoing (or corrupting) the work. *)
let test_same_key_compiles_once () =
  let h0, m0 = Advisor.compile_cache_stats () in
  let src = gen_source ~tag:"dup" 500 in
  let compile () = Advisor.compile_source ~file:"dup.cu" src in
  let results = Pool.map ~domains:4 (fun _ -> compile ()) [ 1; 2; 3; 4 ] in
  let first = List.hd results in
  List.iter
    (fun c -> check_bool "all callers share one compiled value" true (c == first))
    results;
  let h1, m1 = Advisor.compile_cache_stats () in
  check_int "exactly one miss" (m0 + 1) m1;
  check_bool "the rest hit the cache or waited" true (h1 - h0 <= 3)

(* ----- bugfix: pool budget safety when spawns fail or tasks raise ----- *)

let test_pool_spawn_failure_releases_budget () =
  let before = Pool.available () in
  Pool.Private.set_spawn (fun _ -> failwith "injected spawn failure");
  Fun.protect ~finally:Pool.Private.reset_spawn (fun () ->
      let r = Pool.map ~domains:6 (fun x -> x * x) [ 1; 2; 3; 4; 5 ] in
      Alcotest.(check (list int)) "results survive a failed spawn" [ 1; 4; 9; 16; 25 ] r);
  check_int "budget restored after spawn failure" before (Pool.available ())

let test_pool_partial_spawn_failure () =
  let before = Pool.available () in
  let spawned = Atomic.make 0 in
  Pool.Private.set_spawn (fun f ->
      if Atomic.fetch_and_add spawned 1 >= 1 then failwith "injected spawn failure"
      else Domain.spawn f);
  Fun.protect ~finally:Pool.Private.reset_spawn (fun () ->
      let r = Pool.map ~domains:6 (fun x -> x + 1) [ 1; 2; 3; 4; 5; 6 ] in
      Alcotest.(check (list int)) "results survive a partial spawn failure"
        [ 2; 3; 4; 5; 6; 7 ] r);
  check_int "budget restored after partial spawn failure" before (Pool.available ())

let test_pool_budget_restored_when_task_raises () =
  let before = Pool.available () in
  (match Pool.map ~domains:4 (fun x -> if x = 3 then failwith "task blew up" else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "the task exception must propagate"
  | exception Failure m -> check_string "first exception re-raised" "task blew up" m);
  check_int "budget restored after task exception" before (Pool.available ())

let test_spawn_group_accounting () =
  let before = Pool.available () in
  let hits = Atomic.make 0 in
  let g = Pool.spawn_group ~want:3 (fun () -> Atomic.incr hits) in
  check_bool "spawned some workers" true (Pool.group_size g >= 1);
  check_int "budget debited while the group lives"
    (before - Pool.group_size g)
    (Pool.available ());
  let size = Pool.group_size g in
  Pool.join_group g;
  check_int "every worker ran" size (Atomic.get hits);
  check_int "budget restored after join" before (Pool.available ())

(* ----- bugfix: malformed env vars warn and fall back ----- *)

let test_env_fallback () =
  Unix.putenv "CUDAADVISOR_MAX_WARP_INSTRS" "a lot";
  check_int "garbage instr budget falls back to the default"
    Gpusim.Gpu.default_max_warp_insts
    (Gpusim.Gpu.max_warp_insts ());
  Unix.putenv "CUDAADVISOR_MAX_WARP_INSTRS" "-3";
  check_int "non-positive instr budget falls back to the default"
    Gpusim.Gpu.default_max_warp_insts
    (Gpusim.Gpu.max_warp_insts ());
  Unix.putenv "CUDAADVISOR_MAX_WARP_INSTRS"
    (string_of_int Gpusim.Gpu.default_max_warp_insts);
  Unix.putenv "POOL_DOMAINS" "over 9000!";
  (* the old behavior was an int_of_string abort inside map *)
  Alcotest.(check (list int)) "pool still maps with a garbage POOL_DOMAINS"
    [ 2; 4; 6 ]
    (Pool.map (fun x -> x * 2) [ 1; 2; 3 ]);
  Unix.putenv "POOL_DOMAINS" (string_of_int (Domain.recommended_domain_count ()));
  check_int "valid env values are honored" 1234
    (Obs.Env.positive_int "CUDAADVISOR_TEST_ENV_XYZ" ~default:(fun () -> 1234))

(* ----- the evaluate batch op -----

   The tournament endpoint: validation of the variants array, served
   responses byte-identical to a direct [Tune.Evaluate.run_batch],
   per-variant cache hits on resubmission (zero new simulator
   launches), and the per-request deadline as a whole-batch budget
   (partial results, never a silent truncation). *)

let evaluate_request ~id ?timeout_ms ~baseline variants =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let var (name, source, block_x, bypass) =
    Json.Obj
      ([ ("name", Json.String name) ]
      @ opt "source" (fun s -> Json.String s) source
      @ opt "block_x" (fun b -> Json.Int b) block_x
      @ opt "bypass_warps" (fun b -> Json.Int b) bypass)
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id);
          ("op", Json.String "evaluate");
          ("app", Json.String "nn");
          ("baseline", Json.String baseline);
          ("variants", Json.List (List.map var variants)) ]
       @ opt "timeout_ms" (fun ms -> Json.Int ms) timeout_ms))

let test_evaluate_validate () =
  let req line =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error (_, _, m) -> Alcotest.failf "setup parse: %s" m
  in
  let code line =
    match Router.validate (req line) with Ok () -> "ok" | Error (c, _) -> c
  in
  check_string "no variants" "bad_request" (code {|{"op": "evaluate", "app": "nn"}|});
  check_string "empty variants" "bad_request"
    (code {|{"op": "evaluate", "app": "nn", "variants": []}|});
  check_string "nameless variants get positional ids" "ok"
    (code {|{"op": "evaluate", "app": "nn", "variants": [{}, {"block_x": 128}]}|});
  check_string "duplicate names" "bad_request"
    (code
       {|{"op": "evaluate", "app": "nn", "variants": [{"name": "a"}, {"name": "a"}]}|});
  check_string "baseline must name a variant" "bad_request"
    (code
       {|{"op": "evaluate", "app": "nn", "baseline": "zz", "variants": [{"name": "a"}]}|});
  check_string "non-positive block_x" "bad_request"
    (code
       {|{"op": "evaluate", "app": "nn", "variants": [{"name": "a", "block_x": 0}]}|});
  check_string "negative bypass_warps" "bad_request"
    (code
       {|{"op": "evaluate", "app": "nn", "variants": [{"name": "a", "bypass_warps": -1}]}|});
  (* non-object variants are already rejected by the protocol parser *)
  (match
     Protocol.parse_request {|{"op": "evaluate", "app": "nn", "variants": [3]}|}
   with
  | Error (_, c, _) -> check_string "variants must be objects" "bad_request" c
  | Ok _ -> Alcotest.fail "non-object variant should not parse");
  let big =
    Printf.sprintf {|{"op": "evaluate", "app": "nn", "variants": [%s]}|}
      (String.concat ", "
         (List.init 65 (fun i -> Printf.sprintf {|{"name": "v%d"}|} i)))
  in
  check_string "oversized batch" "bad_request" (code big)

(* The served batch must carry the same bytes a one-shot run of the
   tournament engine produces, spliced into the response envelope. *)
let test_evaluate_served_matches_direct () =
  let w = Workloads.Registry.find "nn" in
  let arch = Option.get (Gpusim.Arch.of_name "kepler") in
  let specs =
    [ Tune.Evaluate.baseline_spec;
      { Tune.Evaluate.baseline_spec with
        Tune.Evaluate.sp_name = "bypass4";
        sp_bypass_warps = Some 4 } ]
  in
  let raw =
    Json.to_string (Tune.Evaluate.run_batch ~baseline:"base" ~arch w specs)
  in
  let expected = Protocol.ok_line_raw ~id:(Json.Int 9) ~op:"evaluate" raw in
  with_server ~workers:2 (fun path _srv ->
      let fd = connect path in
      send fd
        (evaluate_request ~id:9 ~baseline:"base"
           [ ("base", None, None, None); ("bypass4", None, None, Some 4) ]);
      let line = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_string "served batch == one-shot run_batch" expected line)

(* An 8-variant tournament; resubmitting the identical batch is
   answered entirely from per-variant cache entries: byte-identical
   response, simulator launch counter flat. *)
let test_evaluate_resubmit_cache_hits () =
  let w = Workloads.Registry.find "nn" in
  let commented i =
    Some (w.Workloads.Common.source ^ Printf.sprintf "\n// tournament seat %d\n" i)
  in
  let variants =
    [ ("base", None, None, None);
      ("bypass4", None, None, Some 4);
      ("block128", None, Some 128, None);
      ("block512", None, Some 512, None);
      ("seat4", commented 4, None, None);
      ("seat5", commented 5, None, None);
      ("seat6", commented 6, None, None);
      ("seat7", commented 7, None, None) ]
  in
  with_server ~workers:2 ~cache:Serve.Rescache.default_config (fun path _srv ->
      let fd = connect path in
      let line = evaluate_request ~id:2 ~baseline:"base" variants in
      send fd line;
      let cold = List.hd (read_lines fd 1) in
      let v = parse_resp cold in
      check_bool "cold batch ok" true (resp_ok v);
      (match Jsonv.member "variants" (field "result" v) with
      | Some (Jsonv.Arr vs) -> check_int "all 8 variants" 8 (List.length vs)
      | _ -> Alcotest.fail "no variants array");
      (match Jsonv.member "ranking" (field "result" v) with
      | Some (Jsonv.Arr rs) -> check_int "full ranking" 8 (List.length rs)
      | _ -> Alcotest.fail "no ranking array");
      let launches0 = metric_counter "sim.launches" in
      send fd line;
      let hot = List.hd (read_lines fd 1) in
      Unix.close fd;
      check_string "resubmitted batch is byte-identical" cold hot;
      check_int "resubmission launched zero simulations" launches0
        (metric_counter "sim.launches"))

(* The request deadline is a whole-batch budget: cached variants are
   still served (lookup precedes the deadline poll), fresh variants
   come back as per-variant "deadline" errors, and every submitted
   variant appears in the (ok) response. *)
let test_evaluate_deadline_partial_batch () =
  let w = Workloads.Registry.find "nn" in
  let commented tag =
    Some (w.Workloads.Common.source ^ Printf.sprintf "\n// %s\n" tag)
  in
  with_server ~workers:2 ~cache:Serve.Rescache.default_config (fun path _srv ->
      let fd = connect path in
      send fd
        (evaluate_request ~id:0 ~baseline:"base"
           [ ("base", None, None, None); ("warm", commented "warm", None, None) ]);
      check_bool "warm-up batch ok" true
        (resp_ok (parse_resp (List.hd (read_lines fd 1))));
      send fd
        (evaluate_request ~id:1 ~timeout_ms:1 ~baseline:"base"
           [ ("base", None, None, None);
             ("warm", commented "warm", None, None);
             ("cold-a", commented "cold-a", None, None);
             ("cold-b", commented "cold-b", None, None) ]);
      let v = parse_resp (List.hd (read_lines fd 1)) in
      Unix.close fd;
      check_bool "deadline batch still answers ok" true (resp_ok v);
      let variants =
        match Jsonv.member "variants" (field "result" v) with
        | Some (Jsonv.Arr vs) -> vs
        | _ -> Alcotest.fail "no variants array"
      in
      check_int "no variant silently dropped" 4 (List.length variants);
      let status_of name =
        match
          List.find_opt
            (fun var -> Jsonv.member "name" var = Some (Jsonv.Str name))
            variants
        with
        | Some var -> (
          match
            Option.bind (Jsonv.member "result" var) (Jsonv.member "status")
          with
          | Some (Jsonv.Str s) -> s
          | _ -> Alcotest.failf "variant %s has no status" name)
        | None -> Alcotest.failf "variant %s missing" name
      in
      check_string "cached baseline served past the deadline" "ok"
        (status_of "base");
      check_string "cached variant served past the deadline" "ok"
        (status_of "warm");
      check_string "fresh variant reports its deadline" "deadline"
        (status_of "cold-a");
      check_string "fresh variant reports its deadline" "deadline"
        (status_of "cold-b"))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse full request" `Quick test_parse_ok;
          Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "response lines" `Quick test_response_lines;
        ] );
      ( "router",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "ping and list" `Quick test_dispatch_ping_list;
          Alcotest.test_case "bad op fields" `Quick test_dispatch_bad_fields;
        ] );
      ( "jobq",
        [ Alcotest.test_case "bounded, closeable" `Quick test_jobq ] );
      ( "daemon",
        [
          Alcotest.test_case "round-trip every op" `Quick test_roundtrip_every_op;
          Alcotest.test_case "served profile == one-shot" `Quick
            test_served_profile_matches_oneshot;
          Alcotest.test_case "malformed and unknown requests" `Quick
            test_malformed_and_unknown_over_socket;
          Alcotest.test_case "8 concurrent profiles" `Quick test_concurrent_profiles;
          Alcotest.test_case "overloaded backpressure" `Quick test_overloaded;
          Alcotest.test_case "timeout leaves the daemon alive" `Quick
            test_timeout_leaves_daemon_alive;
          Alcotest.test_case "graceful shutdown drains" `Quick test_shutdown_drains;
        ] );
      ( "rescache",
        [
          Alcotest.test_case "hot hit: byte-identical, zero launches" `Quick
            test_cache_hit_byte_identical_no_launches;
          Alcotest.test_case "profile_fast: static tier, zero launches" `Quick
            test_profile_fast_roundtrip_no_launches;
          Alcotest.test_case "defaults and field order share one entry" `Quick
            test_cache_defaults_and_reordering_share_entry;
          Alcotest.test_case "LRU entry and byte bounds" `Quick
            test_lru_eviction_bounds;
          Alcotest.test_case "disk tier survives a restart" `Quick
            test_disk_tier_restart_roundtrip;
          Alcotest.test_case "corrupt cache files are skipped" `Quick
            test_corrupt_cache_files_skipped;
        ] );
      ( "cachekey",
        [
          QCheck_alcotest.to_alcotest qcheck_key_stable_under_reordering;
          QCheck_alcotest.to_alcotest qcheck_canonical_source_whitespace;
          Alcotest.test_case "request canonicalization" `Quick
            test_cachekey_of_request;
          Alcotest.test_case "answer tier separates entries" `Quick
            test_cachekey_tier_separation;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "stale socket file is reclaimed" `Quick
            test_stale_socket_recovered;
          Alcotest.test_case "live socket is refused" `Quick
            test_live_socket_refused;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics and metrics_raw ops" `Quick
            test_metrics_ops;
          Alcotest.test_case "prometheus exposition over TCP" `Quick
            test_exposition_endpoint;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "SLO breach accounting" `Quick test_slo_accounting;
          Alcotest.test_case "serve --trace records every phase" `Quick
            test_serve_trace_phases;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "variants validation" `Quick test_evaluate_validate;
          Alcotest.test_case "served batch == one-shot" `Quick
            test_evaluate_served_matches_direct;
          Alcotest.test_case "resubmission hits per-variant cache" `Quick
            test_evaluate_resubmit_cache_hits;
          Alcotest.test_case "deadline yields a partial batch" `Quick
            test_evaluate_deadline_partial_batch;
        ] );
      ( "bugfixes",
        [
          Alcotest.test_case "cold compiles of distinct keys overlap" `Quick
            test_cold_compiles_overlap;
          Alcotest.test_case "same key compiles once" `Quick
            test_same_key_compiles_once;
          Alcotest.test_case "spawn failure releases budget" `Quick
            test_pool_spawn_failure_releases_budget;
          Alcotest.test_case "partial spawn failure" `Quick
            test_pool_partial_spawn_failure;
          Alcotest.test_case "task exception releases budget" `Quick
            test_pool_budget_restored_when_task_raises;
          Alcotest.test_case "worker group accounting" `Quick
            test_spawn_group_accounting;
          Alcotest.test_case "malformed env vars fall back" `Quick test_env_fallback;
        ] );
    ]
