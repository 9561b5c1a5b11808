(* Golden-determinism guard for the simulator's event ordering.

   The timing model's cycle counts — and through them the profiler's
   golden metrics — depend on the exact pop order of the launch event
   queue, *including* arrangement-dependent tie-breaks among equal
   timestamps (see DESIGN.md "Event ordering is part of the contract").
   Optimizations to the interpreter, the scheduler or the superstep
   loop must therefore be bit-identical, not merely statistically
   close.  These tests pin per-launch cycle counts and cache statistics
   for nn and bfs, native and profiled, to the values of the original
   one-instruction-per-pop heap loop.

   The second half checks [Heap.run_ahead_ok], the identity the
   superstep loop relies on to skip a push/pop pair. *)

let check_int = Alcotest.(check int)

let arch () = Gpusim.Arch.kepler_k40c ~l1_kb:16 ()

let launches_of host =
  List.map snd (Hostrt.Host.launches host)

let native name =
  let _, host = Advisor.run_native ~arch:(arch ()) (Workloads.Registry.find name) in
  launches_of host

let profiled name =
  let s = Advisor.profile ~arch:(arch ()) (Workloads.Registry.find name) in
  launches_of s.Advisor.host

let check_launch ~what (r : Gpusim.Gpu.result)
    (cycles, warp_insts, thread_insts, l1, l2, mshr) =
  check_int (what ^ " cycles") cycles r.cycles;
  check_int (what ^ " warp_insts") warp_insts r.stats.Gpusim.Stats.warp_insts;
  check_int (what ^ " thread_insts") thread_insts r.stats.Gpusim.Stats.thread_insts;
  let l1r, l1h, l1m, l1w, l1e = l1 in
  check_int (what ^ " l1 reads") l1r r.l1_stats.Gpusim.Cache.reads;
  check_int (what ^ " l1 hits") l1h r.l1_stats.Gpusim.Cache.read_hits;
  check_int (what ^ " l1 misses") l1m r.l1_stats.Gpusim.Cache.read_misses;
  check_int (what ^ " l1 writes") l1w r.l1_stats.Gpusim.Cache.writes;
  check_int (what ^ " l1 evictions") l1e r.l1_stats.Gpusim.Cache.write_evictions;
  let l2r, l2h, l2m, l2w, l2e = l2 in
  check_int (what ^ " l2 reads") l2r r.l2_stats.Gpusim.Cache.reads;
  check_int (what ^ " l2 hits") l2h r.l2_stats.Gpusim.Cache.read_hits;
  check_int (what ^ " l2 misses") l2m r.l2_stats.Gpusim.Cache.read_misses;
  check_int (what ^ " l2 writes") l2w r.l2_stats.Gpusim.Cache.writes;
  check_int (what ^ " l2 evictions") l2e r.l2_stats.Gpusim.Cache.write_evictions;
  let stalls, merges = mshr in
  check_int (what ^ " mshr stalls") stalls r.mshr_stalls;
  check_int (what ^ " mshr merges") merges r.mshr_merges

(* Values recorded from the seed implementation (event loop popping one
   instruction per heap event, lane-major register file, no pooling). *)

let test_nn_native () =
  match native "nn" with
  | [ r ] ->
    check_launch ~what:"nn native" r
      (5725, 20428, 653436, (510, 0, 510, 255, 0), (510, 0, 510, 255, 0), (0, 0))
  | rs -> Alcotest.failf "nn native: expected 1 launch, got %d" (List.length rs)

let test_nn_profiled () =
  match profiled "nn" with
  | [ r ] ->
    (* hook timing rides the same event order: pins the overhead model *)
    check_launch ~what:"nn profiled" r
      (250031, 23490, 751370, (510, 0, 510, 255, 0), (510, 0, 510, 255, 0), (0, 0))
  | rs -> Alcotest.failf "nn profiled: expected 1 launch, got %d" (List.length rs)

(* bfs: 9 frontier iterations x (Kernel, Kernel2); per-launch cycles
   pin the tie-break-sensitive interleaving (the 11th launch's
   mshr-stall pileup is the sharpest canary), and the two heaviest
   launches are pinned in full. *)

let bfs_native_cycles =
  [ 8432; 3381; 7937; 3358; 8166; 3514; 16338; 4784; 51138; 5132; 85342; 5132;
    22354; 4959; 7071; 3345; 5861; 3266 ]

let test_bfs_native () =
  let rs = native "bfs" in
  check_int "bfs native launches" 18 (List.length rs);
  List.iteri
    (fun i (r : Gpusim.Gpu.result) ->
      check_int (Printf.sprintf "bfs native launch %d cycles" i)
        (List.nth bfs_native_cycles i) r.cycles)
    rs;
  check_launch ~what:"bfs native launch 8" (List.nth rs 8)
    ( 51138, 85573, 653058,
      (12670, 7961, 4709, 9995, 834),
      (4708, 2545, 2163, 9995, 1099),
      (11030, 1) );
  check_launch ~what:"bfs native launch 10" (List.nth rs 10)
    ( 85342, 94261, 1178514,
      (27689, 16661, 11028, 18545, 1301),
      (11023, 8343, 2680, 18545, 1702),
      (1207757, 5) )

let test_bfs_profiled_total () =
  let total =
    List.fold_left
      (fun acc (r : Gpusim.Gpu.result) -> acc + r.cycles)
      0 (profiled "bfs")
  in
  check_int "bfs profiled total kernel cycles" 5488491 total

(* ----- heap run-ahead ----- *)

(* Near-monotonic random streams shaped like the event loop's: keys
   wander forward with occasional far-future spikes and pops
   interleaved with pushes. *)
let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (oneof
         [
           (* push with a small forward delta *)
           map (fun d -> `Push d) (int_range 0 300);
           (* push far ahead *)
           map (fun d -> `Push d) (int_range 3000 100_000);
           return `Pop;
         ]))

let qcheck_heap_run_ahead =
  QCheck2.Test.make
    ~name:"heap run_ahead_ok implies push+pop is an identity" ~count:200 ops_gen
    (fun ops ->
      let q = Gpusim.Heap.create () in
      let ok = ref true in
      let base = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Push d ->
            let key = !base + d in
            if d < 300 then base := !base + (d / 8);
            if Gpusim.Heap.run_ahead_ok q key then begin
              (* the contract: the element would come straight back *)
              Gpusim.Heap.push q key (-key - 1);
              match Gpusim.Heap.pop q with
              | Some (k, v) when k = key && v = -key - 1 -> ()
              | _ -> ok := false
            end
            else Gpusim.Heap.push q key key
          | `Pop -> ignore (Gpusim.Heap.pop q))
        ops;
      !ok)

let () =
  Alcotest.run "determinism"
    [
      ( "golden launches",
        [
          Alcotest.test_case "nn native" `Quick test_nn_native;
          Alcotest.test_case "nn profiled" `Quick test_nn_profiled;
          Alcotest.test_case "bfs native" `Quick test_bfs_native;
          Alcotest.test_case "bfs profiled total" `Quick test_bfs_profiled_total;
        ] );
      ( "schedulers",
        [
          QCheck_alcotest.to_alcotest qcheck_heap_run_ahead;
        ] );
    ]
