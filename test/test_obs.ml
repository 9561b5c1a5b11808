(* The self-profiling layer: histogram bucket arithmetic, registry
   behavior, span nesting under domain parallelism, Chrome-trace
   export validity, and the contract that observation never changes
   what is observed (golden metrics identical with tracing on/off). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ----- histogram buckets ----- *)

(* bucket_lo b <= v <= bucket_hi b  iff  bucket_index v = b *)
let qcheck_bucket_bounds =
  QCheck2.Test.make ~name:"bucket bounds characterize bucket_index" ~count:500
    QCheck2.Gen.(
      oneof
        [ int_range (-4096) 4096; map abs int;
          map (fun b -> 1 lsl abs (b mod 62)) int ])
    (fun v ->
      let b = Obs.Metrics.bucket_index v in
      b >= 0
      && b < Obs.Metrics.num_buckets
      && Obs.Metrics.bucket_lo b <= v
      && v <= Obs.Metrics.bucket_hi b)

(* Both endpoints of every bucket map back to that bucket, and the
   buckets tile the int range without overlap. *)
let test_bucket_endpoints () =
  for b = 0 to Obs.Metrics.num_buckets - 1 do
    check_int "lo endpoint" b (Obs.Metrics.bucket_index (Obs.Metrics.bucket_lo b));
    check_int "hi endpoint" b (Obs.Metrics.bucket_index (Obs.Metrics.bucket_hi b));
    if b > 0 then
      check_int "buckets are adjacent"
        (Obs.Metrics.bucket_hi (b - 1) + 1)
        (Obs.Metrics.bucket_lo b)
  done

let test_histogram_aggregates () =
  let h = Obs.Metrics.histogram "test.obs.hist" in
  let values = [ 0; 1; 1; 3; 100; 7; 65_536; -5 ] in
  List.iter (Obs.Metrics.observe h) values;
  let s =
    match List.assoc "test.obs.hist" (Obs.Metrics.snapshot ()) with
    | Obs.Metrics.Histogram s -> s
    | _ -> Alcotest.fail "test.obs.hist is not a histogram"
  in
  check_int "count" (List.length values) s.count;
  check_int "sum" (List.fold_left ( + ) 0 values) s.sum;
  check_int "max" 65_536 s.max_value;
  check_int "bucket of 1 holds both 1s"
    2
    (List.assoc (Obs.Metrics.bucket_index 1) s.filled);
  check_int "v<=0 shares bucket 0" 2 (List.assoc 0 s.filled)

(* ----- registry ----- *)

let test_registry () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.add c 41;
  Obs.Metrics.incr c;
  check_int "counter accumulates" 42 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  check_int "same name interns to same cell" 43 (Obs.Metrics.counter_value c);
  Obs.Metrics.register_probe "test.obs.probe" (fun () -> 2.5);
  (match List.assoc "test.obs.probe" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Gauge v -> Alcotest.(check (float 0.)) "probe polled" 2.5 v
  | _ -> Alcotest.fail "probe missing from snapshot");
  (* names are kind-stable *)
  check_bool "kind mismatch rejected" true
    (match Obs.Metrics.gauge "test.obs.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* snapshot is sorted by name *)
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  check_bool "snapshot sorted" true (List.sort String.compare names = names)

(* ----- spans under domain parallelism ----- *)

(* Walk a parsed Chrome trace and check per-tid stack discipline:
   every E matches the innermost open B of its tid, and nothing stays
   open.  Returns the number of B/E pairs seen. *)
let check_chrome_pairs json =
  let events =
    match Obs.Jsonv.to_list json with
    | Some l -> l
    | None -> Alcotest.fail "trace is not a JSON array"
  in
  let str e k = Option.bind (Obs.Jsonv.member k e) Obs.Jsonv.to_string_opt in
  let num e k = Option.bind (Obs.Jsonv.member k e) Obs.Jsonv.to_float_opt in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let pairs = ref 0 in
  List.iter
    (fun e ->
      let tid = int_of_float (Option.value ~default:(-1.) (num e "tid")) in
      let name = Option.value ~default:"?" (str e "name") in
      match str e "ph" with
      | Some "B" ->
        let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid (name :: st)
      | Some "E" -> (
        match Hashtbl.find_opt stacks tid with
        | Some (top :: rest) ->
          Alcotest.(check string) "E closes innermost B" top name;
          incr pairs;
          Hashtbl.replace stacks tid rest
        | _ -> Alcotest.fail (Printf.sprintf "unmatched E %S on tid %d" name tid))
      | Some ("C" | "i" | "M") -> ()
      | ph ->
        Alcotest.fail
          (Printf.sprintf "unknown phase %S" (Option.value ~default:"" ph)))
    events;
  Hashtbl.iter
    (fun tid st ->
      if st <> [] then
        Alcotest.fail (Printf.sprintf "tid %d left %d spans open" tid (List.length st)))
    stacks;
  !pairs

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  Fun.protect ~finally:(fun () -> Obs.Trace.disable ()) f

let test_span_nesting_parallel () =
  with_tracing @@ fun () ->
  let items = List.init 16 Fun.id in
  let out =
    Pool.map ~domains:4
      (fun i ->
        Obs.Trace.with_span ~cat:"test" "outer" (fun () ->
            Obs.Trace.with_span ~cat:"test" "inner" (fun () ->
                Obs.Trace.counter "test.progress" (float_of_int i);
                i * i)))
      items
  in
  Alcotest.(check (list int)) "map result unchanged" (List.map (fun i -> i * i) items) out;
  let json =
    match Obs.Jsonv.parse (Obs.Trace.export_chrome ()) with
    | Ok j -> j
    | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
  in
  let pairs = check_chrome_pairs json in
  (* pool.task > outer > inner: three nested spans per item *)
  check_int "three span pairs per item" (3 * List.length items) pairs;
  (* the text tree renders without raising and mentions both spans *)
  let text = Obs.Trace.to_text () in
  check_bool "text tree has outer" true
    (String.length text > 0 && contains text "outer" && contains text "inner")

(* spans survive exceptions: the E is still recorded *)
let test_span_exception_safety () =
  with_tracing @@ fun () ->
  (try
     Obs.Trace.with_span "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  let json =
    match Obs.Jsonv.parse (Obs.Trace.export_chrome ()) with
    | Ok j -> j
    | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
  in
  check_int "B/E pair despite exception" 1 (check_chrome_pairs json)

(* truncation: buffers stop recording at capacity but never break B/E
   matching *)
let test_capacity_truncation () =
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 1_000_000)
  @@ fun () ->
  Obs.Trace.set_capacity 1024;
  with_tracing @@ fun () ->
  for _ = 1 to 3000 do
    Obs.Trace.with_span "spam" Fun.id
  done;
  check_bool "events were dropped" true (Obs.Trace.dropped_count () > 0);
  let json =
    match Obs.Jsonv.parse (Obs.Trace.export_chrome ()) with
    | Ok j -> j
    | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
  in
  ignore (check_chrome_pairs json)

(* ----- observation must not perturb the simulation ----- *)

let nn () = Workloads.Registry.find "nn"
let arch () = Gpusim.Arch.kepler_k40c ~l1_kb:16 ()

type fingerprint = {
  fp_cycles : int;
  fp_rd_mean : float;
  fp_md_degree : float;
  fp_bd : int * int;
}

let fingerprint () =
  let session = Advisor.profile ~arch:(arch ()) (nn ()) in
  let rd = Advisor.reuse_distance session in
  let md = Advisor.mem_divergence session in
  let bd = Advisor.branch_divergence session in
  {
    fp_cycles = Hostrt.Host.total_kernel_cycles session.host;
    fp_rd_mean = rd.mean_finite_distance;
    fp_md_degree = md.Analysis.Mem_divergence.degree;
    fp_bd = (bd.divergent_blocks, bd.total_blocks);
  }

let test_tracing_is_invisible () =
  Obs.Trace.disable ();
  let off = fingerprint () in
  let on_ = with_tracing fingerprint in
  check_int "cycles identical" off.fp_cycles on_.fp_cycles;
  check_bool "rd mean bit-identical" true (off.fp_rd_mean = on_.fp_rd_mean);
  check_bool "md degree bit-identical" true (off.fp_md_degree = on_.fp_md_degree);
  check_bool "bd identical" true (off.fp_bd = on_.fp_bd)

(* ----- percentiles ----- *)

(* Build a histogram snapshot purely from an observation list, mirroring
   [observe]'s aggregate semantics (max over 0, mean = sum/count). *)
let hsnap values =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let b = Obs.Metrics.bucket_index v in
      Hashtbl.replace tbl b
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    values;
  let count = List.length values in
  let sum = List.fold_left ( + ) 0 values in
  {
    Obs.Metrics.count;
    sum;
    max_value = List.fold_left max 0 values;
    mean = (if count = 0 then 0. else float_of_int sum /. float_of_int count);
    filled =
      Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl [] |> List.sort compare;
  }

let qcheck_percentile_monotone =
  QCheck2.Test.make ~name:"percentiles are monotone in q and bounded by max"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 50) (int_range 0 1_000_000))
        (list_size (int_range 2 6) (int_range 0 1000)))
    (fun (vs, qraw) ->
      let h = hsnap vs in
      let qs = List.sort compare (List.map (fun n -> float_of_int n /. 1000.) qraw) in
      let ps = List.map (Obs.Metrics.percentile h) qs in
      let rec mono = function
        | a :: (b :: _ as r) -> a <= b && mono r
        | _ -> true
      in
      mono ps && List.for_all (fun p -> p <= h.Obs.Metrics.max_value) ps)

let test_percentile_units () =
  let h = hsnap [ 1; 1; 3; 100 ] in
  check_int "p100 clamps to observed max" 100 (Obs.Metrics.percentile h 1.0);
  check_int "empty histogram percentile" 0 (Obs.Metrics.percentile (hsnap []) 0.99)

(* ----- Prometheus text exposition ----- *)

let prom_line_ok line =
  line = ""
  || line.[0] = '#'
  || (match String.rindex_opt line ' ' with
     | None -> false
     | Some i ->
       float_of_string_opt
         (String.sub line (i + 1) (String.length line - i - 1))
       <> None)

let test_prometheus_exposition () =
  let snap =
    [ ("t8.ctr", Obs.Metrics.Counter 5);
      ("t8.gauge", Obs.Metrics.Gauge 2.5);
      ("t8.lat.ns", Obs.Metrics.Histogram (hsnap [ 1; 1; 3; 100 ])) ]
  in
  let text = Obs.Metrics.to_prometheus ~snap () in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun l ->
      check_bool (Printf.sprintf "parses: %s" l) true (prom_line_ok l))
    lines;
  check_bool "counter line" true (contains text "t8_ctr 5");
  check_bool "counter type" true (contains text "# TYPE t8_ctr counter");
  check_bool "gauge line" true (contains text "t8_gauge 2.5");
  check_bool "histogram count" true (contains text "t8_lat_ns_count 4");
  check_bool "histogram sum" true (contains text "t8_lat_ns_sum 105");
  check_bool "+Inf bucket" true (contains text "le=\"+Inf\"} 4");
  (* cumulative buckets are non-decreasing *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if contains l "t8_lat_ns_bucket" then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  check_bool "at least two buckets" true (List.length bucket_counts >= 2);
  let rec mono = function
    | a :: (b :: _ as r) -> a <= b && mono r
    | _ -> true
  in
  check_bool "cumulative buckets monotone" true (mono bucket_counts)

(* ----- log rendering ----- *)

let test_log_render_text () =
  let text =
    Obs.Log.render ~t:1.5 ~lvl:Obs.Log.Warn ~component:"gpusim" ~msg:"spill"
  in
  check_bool "text has level and component" true
    (contains text "warn" && contains text "gpusim: spill")

(* Level parsing, filtering, and the per-level counters that count
   messages even when the level filters them out. *)
let test_log_level_filters () =
  let saved = Obs.Log.level () in
  Fun.protect ~finally:(fun () -> Obs.Log.set_level saved) @@ fun () ->
  check_bool "level_of_string accepts aliases and case" true
    (Obs.Log.level_of_string " WARNING " = Ok Obs.Log.Warn
    && Obs.Log.level_of_string "none" = Ok Obs.Log.Quiet
    && Result.is_error (Obs.Log.level_of_string "yaml"));
  Obs.Log.set_level Obs.Log.Warn;
  check_bool "warn level drops info" false (Obs.Log.enabled Obs.Log.Info);
  check_bool "warn level keeps warn and error" true
    (Obs.Log.enabled Obs.Log.Warn && Obs.Log.enabled Obs.Log.Error);
  Obs.Log.set_level Obs.Log.Quiet;
  check_bool "quiet drops error" false (Obs.Log.enabled Obs.Log.Error);
  let warns () =
    match List.assoc_opt "log.messages.warn" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "log.messages.warn counter not registered"
  in
  let before = warns () in
  Obs.Log.warn "test" "swallowed %d" 1;
  check_int "filtered warning still counted" (before + 1) (warns ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          QCheck_alcotest.to_alcotest qcheck_bucket_bounds;
          Alcotest.test_case "bucket endpoints" `Quick test_bucket_endpoints;
          Alcotest.test_case "histogram aggregates" `Quick test_histogram_aggregates;
          Alcotest.test_case "registry" `Quick test_registry;
          QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
          Alcotest.test_case "percentile unit cases" `Quick test_percentile_units;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting across domains" `Quick
            test_span_nesting_parallel;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "capacity truncation" `Quick test_capacity_truncation;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus text parses" `Quick
            test_prometheus_exposition;
        ] );
      ( "log",
        [
          Alcotest.test_case "text rendering" `Quick test_log_render_text;
        ] );
      (* Alcotest pads test names to the longest group name and cuts
         them at the terminal width, so this group's 17-character name
         fixes how the long qcheck names under "metrics" are reported. *)
      ( "log-level-filters",
        [
          Alcotest.test_case "parse, filter and count" `Quick
            test_log_level_filters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tracing on = tracing off" `Quick
            test_tracing_is_invisible;
        ] );
    ]
