(* Tests for the analyzers: reuse distance (including the paper's own
   worked example), memory divergence, branch divergence, statistics and
   the bypass model. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build a synthetic warp-level memory event. *)
let mem_event ?(cta = 0) ?(warp = 0) ?(kind = Passes.Hooks.mem_kind_load)
    ?(bits = 32) addrs =
  ( { Gpusim.Hookev.kernel = "k";
      cta;
      warp;
      loc = Bitc.Loc.none;
      bits;
      kind;
      accesses = Array.of_list (List.mapi (fun lane a -> (lane, a)) addrs) },
    0 )

(* single-lane access stream helper: element index -> byte address *)
let stream ?(kind = Passes.Hooks.mem_kind_load) elems =
  List.map (fun e -> mem_event ~kind [ e * 4 ]) elems

(* ----- fenwick ----- *)

let qcheck_fenwick_matches_naive =
  QCheck2.Test.make ~name:"fenwick prefix sums match naive" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (pair (int_range 1 40) (int_range (-3) 3)))
    (fun updates ->
      let t = Analysis.Fenwick.create 40 in
      let naive = Array.make 41 0 in
      List.iter
        (fun (i, d) ->
          Analysis.Fenwick.add t i d;
          naive.(i) <- naive.(i) + d)
        updates;
      let ok = ref true in
      for i = 0 to 40 do
        let expect = Array.fold_left ( + ) 0 (Array.sub naive 0 (i + 1)) in
        if Analysis.Fenwick.prefix t i <> expect then ok := false
      done;
      !ok)

let qcheck_fenwick_between =
  QCheck2.Test.make ~name:"fenwick between = prefix difference, reset empties"
    ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (pair (int_range 1 40) (int_range (-3) 3)))
        (pair (int_range 0 41) (int_range 0 41)))
    (fun (updates, (lo, hi)) ->
      let t = Analysis.Fenwick.create 40 in
      List.iter (fun (i, d) -> Analysis.Fenwick.add t i d) updates;
      let expect =
        if hi <= lo + 1 then 0
        else Analysis.Fenwick.prefix t (hi - 1) - Analysis.Fenwick.prefix t lo
      in
      let between = Analysis.Fenwick.between t ~lo ~hi in
      Analysis.Fenwick.reset t 20;
      between = expect && Analysis.Fenwick.prefix t 20 = 0)

(* ----- reuse distance ----- *)

(* The paper's example: sequence ABCCDEFAAAB — "the reuse distance of B
   is 5" (distinct elements between the two uses of B). *)
let test_rd_paper_example () =
  let seq = [ 0; 1; 2; 2; 3; 4; 5; 0; 0; 0; 1 ] (* A B C C D E F A A A B *) in
  let r = Analysis.Reuse_distance.of_events (stream seq) in
  (* distances: C->C:0, A->A:5, A->A:0, A->A:0, B->B:5 => finite = 5 *)
  check_int "finite reuses" 5 r.finite_reuses;
  check_int "rd0 count" 3 (List.assoc Analysis.Reuse_distance.B0 r.histogram);
  (* B's reuse at distance 5 falls in bucket 3-8; so does A's first *)
  check_int "rd 3-8 count" 2 (List.assoc Analysis.Reuse_distance.B3_8 r.histogram);
  (* 6 distinct elements never reused again -> infinite *)
  check_int "no-reuse" 6 r.infinite_reuses;
  check_int "samples" 11 r.samples

let test_rd_streaming_is_all_infinite () =
  let r = Analysis.Reuse_distance.of_events (stream [ 0; 1; 2; 3; 4; 5 ]) in
  check_int "no finite reuse" 0 r.finite_reuses;
  check "all infinite" true (Analysis.Reuse_distance.no_reuse_fraction r = 1.0)

let test_rd_write_restarts () =
  (* read A, write A, read A: the write kills the pending reuse *)
  let events =
    [ mem_event [ 0 ]; mem_event ~kind:Passes.Hooks.mem_kind_store [ 0 ];
      mem_event [ 0 ] ]
  in
  let r = Analysis.Reuse_distance.of_events events in
  check_int "no finite reuse across a write" 0 r.finite_reuses;
  (* first read -> inf (killed by write); second read pending at end -> inf *)
  check_int "two no-reuse samples" 2 r.infinite_reuses

let test_rd_read_read_is_finite () =
  let r = Analysis.Reuse_distance.of_events (stream [ 0; 1; 0 ]) in
  check_int "one finite reuse" 1 r.finite_reuses;
  check_int "distance 1 bucket" 1
    (List.assoc Analysis.Reuse_distance.B1_2 r.histogram)

let test_rd_per_cta_separation () =
  (* same element touched by two CTAs: no cross-CTA reuse *)
  let events = [ mem_event ~cta:0 [ 0 ]; mem_event ~cta:1 [ 0 ] ] in
  let r = Analysis.Reuse_distance.of_events events in
  check_int "no cross-CTA reuse" 0 r.finite_reuses

let test_rd_cache_line_granularity () =
  (* adjacent words share a 128-byte line: reuse at line granularity only *)
  let events = [ mem_event [ 0 ]; mem_event [ 4 ] ] in
  let elem = Analysis.Reuse_distance.of_events events in
  let line =
    Analysis.Reuse_distance.of_events
      ~granularity:(Analysis.Reuse_distance.Cache_line 128) events
  in
  check_int "element: no reuse" 0 elem.finite_reuses;
  check_int "line: one reuse at 0" 1 line.finite_reuses

let test_rd_merge () =
  let a = Analysis.Reuse_distance.of_events (stream [ 0; 0 ]) in
  let b = Analysis.Reuse_distance.of_events (stream [ 1; 2; 1 ]) in
  let m = Analysis.Reuse_distance.merge [ a; b ] in
  check_int "samples add" (a.samples + b.samples) m.samples;
  check_int "finite add" (a.finite_reuses + b.finite_reuses) m.finite_reuses

let test_rd_buckets () =
  let open Analysis.Reuse_distance in
  check "bucket 0" true (bucket_of_distance 0 = B0);
  check "bucket 2" true (bucket_of_distance 2 = B1_2);
  check "bucket 8" true (bucket_of_distance 8 = B3_8);
  check "bucket 32" true (bucket_of_distance 32 = B9_32);
  check "bucket 128" true (bucket_of_distance 128 = B33_128);
  check "bucket 512" true (bucket_of_distance 512 = B129_512);
  check "bucket 513" true (bucket_of_distance 513 = B_gt512)

let qcheck_rd_sample_conservation =
  (* every read access yields exactly one sample (finite or infinite) *)
  QCheck2.Test.make ~name:"reuse-distance samples = read accesses" ~count:100
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 10))
    (fun elems ->
      let r = Analysis.Reuse_distance.of_events (stream elems) in
      r.samples = List.length elems && r.finite_reuses + r.infinite_reuses = r.samples)

let qcheck_rd_write_only_no_samples_finite =
  QCheck2.Test.make ~name:"write-only streams have no finite reuse" ~count:50
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 10))
    (fun elems ->
      let events =
        List.map (fun e -> mem_event ~kind:Passes.Hooks.mem_kind_store [ e * 4 ]) elems
      in
      (Analysis.Reuse_distance.of_events events).finite_reuses = 0)

(* Two interleaved CTAs each read elements 0..m-1 and then m-1..0: the
   second read of element k is at distance m-1-k.  With m past the
   last-use table's initial capacity this covers its growth, and the
   second CTA reuses the grown table's slots from the first. *)
let test_rd_large_table () =
  let open Analysis.Reuse_distance in
  let m = 1500 in
  let order = List.init m Fun.id @ List.init m (fun k -> m - 1 - k) in
  let events =
    List.concat_map (fun e -> [ mem_event ~cta:0 [ 4 * e ]; mem_event ~cta:1 [ 4 * e ] ]) order
  in
  let count b =
    if b = B_inf then 2 * m
    else 2 * List.length (List.filter (fun d -> bucket_of_distance d = b) (List.init m Fun.id))
  in
  let expect =
    { granularity = Element;
      samples = 4 * m;
      histogram = List.map (fun b -> (b, count b)) buckets;
      finite_reuses = 2 * m;
      infinite_reuses = 2 * m;
      mean_finite_distance = float_of_int (m - 1) /. 2.;
      max_finite_distance = m - 1 }
  in
  check "closed form" true (of_events events = expect)

(* Naive O(n^2) reference of [Reuse_distance.of_trace], CTA by CTA.
   Every load is one sample: a later load of its element with no store
   of it in between is a finite reuse, whose distance is the number of
   distinct elements with a live use strictly between the two (loaded
   there and not stored since); a store first, or no later access,
   makes it infinite. *)
let naive_reuse ~granularity events =
  let open Analysis.Reuse_distance in
  let elem_of (m : Gpusim.Hookev.mem) addr =
    match granularity with
    | Element -> addr / max 1 (m.bits / 8)
    | Cache_line line -> addr / line
  in
  let ctas = List.sort_uniq compare (List.map (fun ((m : Gpusim.Hookev.mem), _) -> m.cta) events) in
  let hist = Hashtbl.create 8 in
  let bump b = Hashtbl.replace hist b (1 + Option.value ~default:0 (Hashtbl.find_opt hist b)) in
  let finite = ref 0 and infinite = ref 0 and sum = ref 0 and maxd = ref 0 in
  List.iter
    (fun cta ->
      let stream =
        List.concat_map
          (fun ((m : Gpusim.Hookev.mem), _) ->
            if m.cta <> cta then []
            else
              Array.to_list
                (Array.map
                   (fun (_, a) -> (elem_of m a, m.kind = Passes.Hooks.mem_kind_store))
                   m.accesses))
          events
        |> Array.of_list
      in
      let n = Array.length stream in
      Array.iteri
        (fun k (e, is_store) ->
          if not is_store then begin
            let next = ref None in
            for p = n - 1 downto k + 1 do
              if fst stream.(p) = e then next := Some p
            done;
            match !next with
            | Some p when not (snd stream.(p)) ->
              (* walk back from p: an element counts at its last load
                 before p unless a store of it follows that load *)
              let stored = Hashtbl.create 8 and counted = Hashtbl.create 8 in
              for r = p - 1 downto k + 1 do
                let e', st = stream.(r) in
                if st then Hashtbl.replace stored e' ()
                else if not (Hashtbl.mem stored e' || Hashtbl.mem counted e') then
                  Hashtbl.replace counted e' ()
              done;
              let d = Hashtbl.length counted in
              bump (bucket_of_distance d);
              incr finite;
              sum := !sum + d;
              maxd := max !maxd d
            | _ ->
              bump B_inf;
              incr infinite
          end)
        stream)
    ctas;
  {
    granularity;
    samples = !finite + !infinite;
    histogram =
      List.map (fun b -> (b, Option.value ~default:0 (Hashtbl.find_opt hist b))) buckets;
    finite_reuses = !finite;
    infinite_reuses = !infinite;
    mean_finite_distance =
      (if !finite = 0 then 0. else float_of_int !sum /. float_of_int !finite);
    max_finite_distance = !maxd;
  }

(* Random traces: 1-4 CTAs (a dense id range or sparse ids), loads and
   stores of 1/4/8-byte width, 0-4 lanes each.  Addresses come from a
   range small enough to reuse or wide enough to grow the last-use
   table, or from a pool of 400 scattered addresses: consecutive
   elements hash without collisions, scattered ones build the probe
   chains a store must not break. *)
let gen_rd_events =
  let open QCheck2.Gen in
  let* ctas =
    oneof
      [ map (fun n -> List.init n Fun.id) (int_range 1 4);
        list_size (int_range 1 4) (int_range 0 100_000) ]
  in
  let* addr =
    oneof
      [ map (fun range -> int_range 0 range) (oneofl [ 64; 512; 1_000_000 ]);
        map oneofa (array_size (return 400) (int_range 0 1_000_000_000)) ]
  in
  list_size (int_range 1 300)
    (let* cta = oneofl ctas in
     let* store = bool in
     let* bits = oneofl [ 8; 32; 64 ] in
     let* addrs = list_size (int_range 0 4) addr in
     return
       (mem_event ~cta ~bits
          ~kind:(if store then Passes.Hooks.mem_kind_store else Passes.Hooks.mem_kind_load)
          addrs))

let qcheck_rd_matches_naive =
  QCheck2.Test.make ~name:"reuse distance = naive per-CTA reference" ~count:100
    gen_rd_events (fun events ->
      let tr = Profiler.Tracebuf.of_events events in
      List.for_all
        (fun granularity ->
          Analysis.Reuse_distance.of_trace ~granularity tr
          = naive_reuse ~granularity events)
        Analysis.Reuse_distance.[ Element; Cache_line 32; Cache_line 128 ])

(* ----- memory divergence ----- *)

let test_md_coalesced () =
  let ev = mem_event (List.init 32 (fun i -> 4 * i)) in
  let r = Analysis.Mem_divergence.of_events ~line_size:128 [ ev ] in
  check_int "one line" 1 r.distribution.(1);
  check "degree 1" true (r.degree = 1.

)

let test_md_divergent () =
  let ev = mem_event (List.init 32 (fun i -> 1024 * i)) in
  let r = Analysis.Mem_divergence.of_events ~line_size:128 [ ev ] in
  check_int "32 lines" 1 r.distribution.(32);
  check "degree 32" true (r.degree = 32.)

let test_md_line_size_matters () =
  (* 32 consecutive floats: one 128B line but four 32B sectors *)
  let ev = mem_event (List.init 32 (fun i -> 4 * i)) in
  let kepler = Analysis.Mem_divergence.of_events ~line_size:128 [ ev ] in
  let pascal = Analysis.Mem_divergence.of_events ~line_size:32 [ ev ] in
  check "kepler 1 line" true (kepler.degree = 1.);
  check "pascal 4 lines" true (pascal.degree = 4.)

let test_md_byte_accesses () =
  (* 32 consecutive bools: one 32B sector on Pascal *)
  let ev = mem_event ~bits:8 (List.init 32 Fun.id) in
  let r = Analysis.Mem_divergence.of_events ~line_size:32 [ ev ] in
  check "one sector" true (r.degree = 1.)

let test_md_sites_ranking () =
  let loc1 = Bitc.Loc.make ~file:"a.cu" ~line:1 ~col:1 in
  let loc2 = Bitc.Loc.make ~file:"a.cu" ~line:2 ~col:1 in
  let ev loc addrs =
    ( { Gpusim.Hookev.kernel = "k"; cta = 0; warp = 0; loc; bits = 32;
        kind = Passes.Hooks.mem_kind_load;
        accesses = Array.of_list (List.mapi (fun l a -> (l, a)) addrs) },
      0 )
  in
  let events =
    [ ev loc1 (List.init 32 (fun i -> 4 * i)); ev loc2 (List.init 32 (fun i -> 512 * i)) ]
  in
  let sites =
    Analysis.Mem_divergence.sites_of_traces ~line_size:128
      [ Profiler.Tracebuf.of_events events ]
  in
  check_int "two sites" 2 (List.length sites);
  check "worst first" true
    ((List.hd sites).site_loc.Bitc.Loc.line = 2)

(* Random traces for the site table: locations and CCT nodes from small
   pools, so they repeat across traces and some first appear on an
   event with no active lane; addresses on 128-byte line starts, so
   average-line ties are common. *)
let gen_site_traces =
  let open QCheck2.Gen in
  let event =
    let* line = int_range 1 4 in
    let* node = int_range 0 2 in
    let* addrs = list_size (int_range 0 4) (map (fun k -> 128 * k) (int_range 0 3)) in
    let loc = Bitc.Loc.make ~file:"a.cu" ~line ~col:1 in
    return
      ( { Gpusim.Hookev.kernel = "k"; cta = 0; warp = 0; loc; bits = 32;
          kind = Passes.Hooks.mem_kind_load;
          accesses = Array.of_list (List.mapi (fun l a -> (l, a)) addrs) },
        node )
  in
  list_size (int_range 1 3) (list_size (int_range 0 20) event)

(* The site table as the report built it over one trace of all the
   events: keyed by the trace's own location ids, folded in hash-table
   order, stably sorted.  Its tie order is part of the report's bytes. *)
let reference_sites ~line_size tr =
  let table = Hashtbl.create 64 in
  Profiler.Tracebuf.iter tr (fun i ->
      let n = Profiler.Tracebuf.acc_len tr i in
      if n > 0 then begin
        let width = max 1 (Profiler.Tracebuf.bits tr i / 8) in
        let lines =
          List.init n (fun j ->
              let a = Profiler.Tracebuf.addr tr i j in
              [ a / line_size; (a + width - 1) / line_size ])
          |> List.concat |> List.sort_uniq compare |> List.length |> min 32
        in
        let key = (Profiler.Tracebuf.loc_id tr i, Profiler.Tracebuf.node tr i) in
        match Hashtbl.find_opt table key with
        | Some (count, sum) ->
          incr count;
          sum := !sum + lines
        | None -> Hashtbl.replace table key (ref 1, ref lines)
      end);
  Hashtbl.fold
    (fun (loc_id, node) (count, sum) acc ->
      { Analysis.Mem_divergence.site_loc = Profiler.Tracebuf.loc_of_id tr loc_id;
        site_node = node;
        site_count = !count;
        site_avg_lines = float_of_int !sum /. float_of_int !count }
      :: acc)
    table []
  |> List.sort (fun (a : Analysis.Mem_divergence.site) b ->
         compare b.site_avg_lines a.site_avg_lines)

let qcheck_sites_of_traces =
  QCheck2.Test.make ~name:"sites over traces = sites over their concatenation"
    ~count:200 gen_site_traces (fun traces ->
      let traces = List.map Profiler.Tracebuf.of_events traces in
      let concat =
        Profiler.Tracebuf.of_events (List.concat_map Profiler.Tracebuf.to_events traces)
      in
      let sites = Analysis.Mem_divergence.sites_of_traces ~line_size:128 traces in
      sites = Analysis.Mem_divergence.sites_of_trace ~line_size:128 concat
      && sites = reference_sites ~line_size:128 concat)

let qcheck_md_degree_bounds =
  QCheck2.Test.make ~name:"divergence degree in [1, 32]" ~count:100
    QCheck2.Gen.(list_size (int_range 1 32) (int_range 0 100000))
    (fun addrs ->
      let ev = mem_event (List.map (fun a -> a * 4) addrs) in
      let r = Analysis.Mem_divergence.of_events ~line_size:128 [ ev ] in
      r.degree >= 1. && r.degree <= 32.)


(* ----- per-site reuse (vertical bypassing input) ----- *)

let site_ev ?(kind = Passes.Hooks.mem_kind_load) ~line ~col addrs =
  ( { Gpusim.Hookev.kernel = "k"; cta = 0; warp = 0;
      loc = Bitc.Loc.make ~file:"a.cu" ~line ~col; bits = 32; kind;
      accesses = Array.of_list (List.mapi (fun l a -> (l, a)) addrs) },
    0 )

let test_site_reuse_streaming_site () =
  (* site at line 1 streams; site at line 2 re-reads what line 1 read *)
  let events =
    [ site_ev ~line:1 ~col:1 [ 0 ]; site_ev ~line:2 ~col:1 [ 0 ];
      site_ev ~line:1 ~col:1 [ 1024 ] ]
  in
  let sites = Analysis.Site_reuse.of_events ~line_size:128 events in
  let s1 = List.find (fun (s : Analysis.Site_reuse.site_stat) -> s.loc.line = 1) sites in
  (* line-1's first access was reused by line-2; its second never *)
  check_int "site1 accesses" 2 s1.accesses;
  check_int "site1 reused" 1 s1.reused_later

let test_site_reuse_intra_instruction_not_reuse () =
  (* 32 lanes on one line in a single instruction: no self-credit *)
  let events = [ site_ev ~line:3 ~col:1 (List.init 32 (fun i -> 4 * i)) ] in
  let sites = Analysis.Site_reuse.of_events ~line_size:128 events in
  let s = List.hd sites in
  check_int "no intra-instruction reuse" 0 s.reused_later

let test_site_reuse_write_kills () =
  let events =
    [ site_ev ~line:4 ~col:1 [ 0 ];
      site_ev ~kind:Passes.Hooks.mem_kind_store ~line:5 ~col:1 [ 0 ];
      site_ev ~line:6 ~col:1 [ 0 ] ]
  in
  let sites = Analysis.Site_reuse.of_events ~line_size:128 events in
  let s4 = List.find (fun (s : Analysis.Site_reuse.site_stat) -> s.loc.line = 4) sites in
  check_int "write killed the reuse" 0 s4.reused_later

let test_site_reuse_candidates () =
  let events =
    [ site_ev ~line:1 ~col:1 [ 0 ]; site_ev ~line:1 ~col:1 [ 1024 ];
      (* line 2 has full reuse of what it reads *)
      site_ev ~line:2 ~col:1 [ 4096 ]; site_ev ~line:2 ~col:1 [ 4096 ] ]
  in
  let cands = Analysis.Site_reuse.bypass_candidates ~threshold:0.4 ~line_size:128 events in
  check_int "one streaming candidate" 1 (List.length cands);
  check_int "it is line 1" 1 (List.hd cands).line

(* ----- bypass model ----- *)

let test_bypass_model_clamps () =
  let inp =
    { Analysis.Bypass_model.l1_cache_size = 16384;
      cacheline_size = 128;
      reuse_distance = 1.;
      mem_divergence = 1.;
      ctas_per_sm = 1;
      warps_per_cta = 8 }
  in
  (* 16384 / 128 = 128 -> clamp to 8 *)
  check_int "clamp to warps_per_cta" 8 (Analysis.Bypass_model.optimal_warps inp);
  let heavy = { inp with reuse_distance = 1000.; mem_divergence = 32. } in
  check_int "heavy pressure -> 0" 0 (Analysis.Bypass_model.optimal_warps heavy)

let test_bypass_model_formula () =
  (* 16384 / (4 * 128 * 2 * 4) = 4 *)
  let inp =
    { Analysis.Bypass_model.l1_cache_size = 16384;
      cacheline_size = 128;
      reuse_distance = 4.;
      mem_divergence = 2.;
      ctas_per_sm = 4;
      warps_per_cta = 8 }
  in
  check_int "Eq.(1)" 4 (Analysis.Bypass_model.optimal_warps inp)

let qcheck_bypass_model_monotone =
  QCheck2.Test.make ~name:"more pressure never means more caching warps" ~count:100
    QCheck2.Gen.(pair (float_range 1. 100.) (float_range 1. 100.))
    (fun (rd, rd') ->
      let mk rd =
        { Analysis.Bypass_model.l1_cache_size = 16384;
          cacheline_size = 128;
          reuse_distance = rd;
          mem_divergence = 4.;
          ctas_per_sm = 2;
          warps_per_cta = 16 }
      in
      let lo = Float.min rd rd' and hi = Float.max rd rd' in
      Analysis.Bypass_model.optimal_warps (mk hi)
      <= Analysis.Bypass_model.optimal_warps (mk lo))


(* ----- json / report ----- *)

let test_json_emitter () =
  let j =
    Analysis.Json.(
      Obj
        [ ("a", Int 1); ("b", Float 2.5); ("s", String "x\"y\n");
          ("l", List [ Bool true; Null ]) ])
  in
  Alcotest.(check string) "rendering"
    "{\"a\":1,\"b\":2.5,\"s\":\"x\\\"y\\n\",\"l\":[true,null]}"
    (Analysis.Json.to_string j)

let test_report_structure () =
  (* a report over an empty profile still has all sections *)
  let manifest = Passes.Manifest.create () in
  let profiler = Profiler.Profile.create ~manifest () in
  let r =
    Analysis.Report.to_string
      (Analysis.Report.of_profile ~app:"x" ~arch_name:"a" ~line_size:128 profiler)
  in
  List.iter
    (fun key -> check ("has " ^ key) true (Testutil.contains r key))
    [ "reuse_distance"; "memory_divergence"; "branch_divergence"; "contexts" ]

(* The exact report's bytes, pinned by MD5 (digests taken before the
   analyzer moved to flat int tables; any change to them is a change
   to served profile bytes). *)
let report_digests =
  [ ("nn", "kepler", "65486def032043bb2bfc80c927ce8ef0");
    ("nn", "pascal", "dda9b47177ac414882c8ad90feaa2a18");
    ("bicg", "kepler", "81eefb7d5f8828ddbcc2daf6fcb1d4fe");
    ("bicg", "pascal", "3475b673caa80817417fc8a7271ad70e");
    ("bfs", "kepler", "03565cd9b67b8bfd98e3c62f961bd030");
    ("bfs", "pascal", "df0ca467cbe44b86ecb10b98119ea1e2") ]

let test_report_bytes (app, arch_name, digest) () =
  let w = Workloads.Registry.find app in
  let arch = Option.get (Gpusim.Arch.of_name arch_name) in
  let session = Advisor.profile ~arch w in
  let bytes =
    Analysis.Report.of_profile ~app:w.Workloads.Common.name
      ~arch_name:arch.Gpusim.Arch.name ~line_size:arch.Gpusim.Arch.line_size
      session.Advisor.profiler
    |> Analysis.Json.to_string
  in
  Alcotest.(check string) (app ^ "/" ^ arch_name) digest (Digest.to_hex (Digest.string bytes))

(* ----- statistics ----- *)

let test_statistics_summary () =
  let s = Analysis.Statistics.summarize [ 1.; 2.; 3.; 4. ] in
  check_int "count" 4 s.count;
  check "mean" true (s.mean = 2.5);
  check "min" true (s.min = 1.);
  check "max" true (s.max = 4.);
  check "stddev" true (abs_float (s.stddev -. sqrt 1.25) < 1e-9)

let test_statistics_empty () =
  let s = Analysis.Statistics.summarize [] in
  check_int "count" 0 s.count;
  check "mean 0" true (s.mean = 0.)

let () =
  Alcotest.run "analysis"
    [
      ( "fenwick",
        [ QCheck_alcotest.to_alcotest qcheck_fenwick_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_fenwick_between ] );
      ( "reuse distance",
        [ Alcotest.test_case "paper example ABCCDEFAAAB" `Quick test_rd_paper_example;
          Alcotest.test_case "streaming" `Quick test_rd_streaming_is_all_infinite;
          Alcotest.test_case "write restarts" `Quick test_rd_write_restarts;
          Alcotest.test_case "read-read finite" `Quick test_rd_read_read_is_finite;
          Alcotest.test_case "per-CTA separation" `Quick test_rd_per_cta_separation;
          Alcotest.test_case "line granularity" `Quick test_rd_cache_line_granularity;
          Alcotest.test_case "merge" `Quick test_rd_merge;
          Alcotest.test_case "buckets" `Quick test_rd_buckets;
          QCheck_alcotest.to_alcotest qcheck_rd_sample_conservation;
          QCheck_alcotest.to_alcotest qcheck_rd_write_only_no_samples_finite;
          Alcotest.test_case "large last-use table" `Quick test_rd_large_table;
          QCheck_alcotest.to_alcotest qcheck_rd_matches_naive ] );
      ( "memory divergence",
        [ Alcotest.test_case "coalesced" `Quick test_md_coalesced;
          Alcotest.test_case "divergent" `Quick test_md_divergent;
          Alcotest.test_case "line size" `Quick test_md_line_size_matters;
          Alcotest.test_case "byte accesses" `Quick test_md_byte_accesses;
          Alcotest.test_case "site ranking" `Quick test_md_sites_ranking;
          QCheck_alcotest.to_alcotest qcheck_sites_of_traces;
          QCheck_alcotest.to_alcotest qcheck_md_degree_bounds ] );
      ( "site reuse",
        [ Alcotest.test_case "streaming site" `Quick test_site_reuse_streaming_site;
          Alcotest.test_case "intra-instruction" `Quick test_site_reuse_intra_instruction_not_reuse;
          Alcotest.test_case "write kills" `Quick test_site_reuse_write_kills;
          Alcotest.test_case "candidates" `Quick test_site_reuse_candidates ] );
      ( "bypass model",
        [ Alcotest.test_case "clamps" `Quick test_bypass_model_clamps;
          Alcotest.test_case "formula" `Quick test_bypass_model_formula;
          QCheck_alcotest.to_alcotest qcheck_bypass_model_monotone ] );
      ( "report",
        [ Alcotest.test_case "json emitter" `Quick test_json_emitter;
          Alcotest.test_case "report structure" `Quick test_report_structure ] );
      ( "report bytes",
        List.map
          (fun ((app, arch, _) as pin) ->
            Alcotest.test_case (app ^ " " ^ arch) `Quick (test_report_bytes pin))
          report_digests );
      ( "statistics",
        [ Alcotest.test_case "summary" `Quick test_statistics_summary;
          Alcotest.test_case "empty" `Quick test_statistics_empty ] );
    ]
