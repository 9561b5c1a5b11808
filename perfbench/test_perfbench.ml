(* The benchmark's own statistics: tail-percentile selection, open-loop
   due-time latency and lateness, and span self time. *)

let feq = Alcotest.float 1e-9

let test_quantile () =
  let a = [| 4.; 1.; 3.; 2. |] in
  Alcotest.check feq "median interpolates" 2.5 (Stats.median a);
  Alcotest.check feq "q0 is the minimum" 1. (Stats.quantile a 0.);
  Alcotest.check feq "q1 is the maximum" 4. (Stats.quantile a 1.);
  Alcotest.check feq "single sample" 7. (Stats.median [| 7. |])

let test_tail_selection () =
  (* 100 samples 1..100: the highest percentile with ten samples above
     it is p90, whose value is the 90th smallest *)
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  (match Stats.tail a with
  | Some t ->
    Alcotest.check feq "percentile" 90. t.Stats.pct;
    Alcotest.check feq "value" 90. t.Stats.value;
    Alcotest.(check int) "samples" 100 t.Stats.samples;
    let beyond = Array.fold_left (fun n x -> if x > t.Stats.value then n + 1 else n) 0 a in
    Alcotest.(check int) "exactly ten beyond" 10 beyond
  | None -> Alcotest.fail "expected a tail");
  (* 1000 samples: p99 *)
  (match Stats.tail (Array.init 1000 float_of_int) with
  | Some t ->
    Alcotest.check feq "p99" 99. t.Stats.pct;
    Alcotest.check feq "p99 value" 989. t.Stats.value
  | None -> Alcotest.fail "expected a tail");
  (* 32 samples: p68.75, the 22nd smallest *)
  (match Stats.tail (Array.init 32 float_of_int) with
  | Some t ->
    Alcotest.check feq "p68.75" 68.75 t.Stats.pct;
    Alcotest.check feq "22nd smallest" 21. t.Stats.value
  | None -> Alcotest.fail "expected a tail");
  Alcotest.(check bool) "19 samples have no tail at or above the median" true
    (Stats.tail (Array.make 19 1.) = None);
  Alcotest.(check bool) "20 samples give the median" true
    (match Stats.tail (Array.init 20 float_of_int) with
    | Some t -> t.Stats.pct = 50. && t.Stats.value = 9.
    | None -> false)

let test_open_loop () =
  let start_ns = 1_000_000_000 in
  Alcotest.(check int) "first due at start" start_ns (Stats.due_ns ~start_ns ~rate:1000. 0);
  Alcotest.(check int) "1000/s: 1 ms apart" (start_ns + 5_000_000)
    (Stats.due_ns ~start_ns ~rate:1000. 5);
  Alcotest.(check int) "fractional intervals round" (start_ns + 333_333)
    (Stats.due_ns ~start_ns ~rate:3000. 1);
  (* a request sent 2 ms late and answered 0.5 ms after sending counts
     2.5 ms of latency from its due time *)
  let due_ns = Stats.due_ns ~start_ns ~rate:1000. 3 in
  let sent_ns = due_ns + 2_000_000 in
  let done_ns = sent_ns + 500_000 in
  Alcotest.(check int) "latency from due" 2_500_000 (Stats.latency_ns ~due_ns ~done_ns);
  Alcotest.(check int) "lateness" 2_000_000 (Stats.lateness_ns ~due_ns ~sent_ns);
  Alcotest.(check int) "early sends are not late" 0
    (Stats.lateness_ns ~due_ns ~sent_ns:(due_ns - 10));
  let steady = Array.make 100 0.2 in
  let growing = Array.init 100 (fun i -> 0.2 +. (0.05 *. float_of_int i)) in
  Alcotest.(check bool) "steady latency is no backlog" false
    (Stats.backlog_growing ~limit:1. steady);
  Alcotest.(check bool) "rising latency is a backlog" true
    (Stats.backlog_growing ~limit:1. growing)

let test_self_time () =
  Alcotest.(check int) "no children" 100 (Stats.self_ns ~start:0 ~stop:100 []);
  Alcotest.(check int) "disjoint children" 70
    (Stats.self_ns ~start:0 ~stop:100 [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping children count once" 60
    (Stats.self_ns ~start:0 ~stop:100 [ (10, 40); (30, 50) ]);
  Alcotest.(check int) "children clipped to the parent" 80
    (Stats.self_ns ~start:0 ~stop:100 [ (-10, 10); (90, 120) ]);
  Alcotest.(check int) "fully covered" 0 (Stats.self_ns ~start:0 ~stop:100 [ (0, 100) ])

let test_span_recorder () =
  let t = Spans.create () in
  Spans.set_request t 7;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "inner" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))));
  match Spans.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first to finish" "inner" inner.Spans.name;
    Alcotest.(check int) "parent link" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "root" (-1) outer.Spans.parent;
    Alcotest.(check int) "request id" 7 inner.Spans.request;
    let self = List.assoc outer (List.map (fun (s, v) -> (s, v)) (Spans.self_times t)) in
    Alcotest.(check int) "outer self = outer - inner" (Spans.dur outer - Spans.dur inner) self
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail percentile selection" `Quick test_tail_selection;
          Alcotest.test_case "open-loop due time and lateness" `Quick test_open_loop;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_span_recorder ] ) ]
