(* Tests for the GPU simulator: caches, MSHRs, coalescing, device
   memory, the SIMT execution engine, barriers, atomics, 2D grids and
   the timing queues. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- cache ----- *)

let test_cache_hit_after_fill () =
  let c = Gpusim.Cache.create ~size:1024 ~assoc:2 ~line:64 in
  check "first access misses" false (Gpusim.Cache.access_read c 0);
  check "second access hits" true (Gpusim.Cache.access_read c 0);
  check "same line hits" true (Gpusim.Cache.access_read c 63);
  check "next line misses" false (Gpusim.Cache.access_read c 64)

let test_cache_write_evict () =
  let c = Gpusim.Cache.create ~size:1024 ~assoc:2 ~line:64 in
  ignore (Gpusim.Cache.access_read c 0);
  check "cached" true (Gpusim.Cache.contains c 0);
  Gpusim.Cache.access_write c 0;
  check "evicted by write" false (Gpusim.Cache.contains c 0);
  check "write-no-allocate" false (Gpusim.Cache.access_read c 0);
  check_int "eviction counted" 1 c.stats.write_evictions

let test_cache_lru () =
  (* 2-way set: touch three lines of the same set; the LRU one leaves *)
  let c = Gpusim.Cache.create ~size:128 ~assoc:2 ~line:64 in
  (* 1 set, 2 ways: lines 0 and 1 map to set 0 *)
  ignore (Gpusim.Cache.access_read c 0);
  ignore (Gpusim.Cache.access_read c 64);
  ignore (Gpusim.Cache.access_read c 0) (* refresh line 0 *);
  ignore (Gpusim.Cache.access_read c 128) (* evicts line 1 (LRU) *);
  check "line 0 survives" true (Gpusim.Cache.contains c 0);
  check "line 1 evicted" false (Gpusim.Cache.contains c 64)

let test_cache_stats_consistency () =
  let c = Gpusim.Cache.create ~size:4096 ~assoc:4 ~line:64 in
  for i = 0 to 999 do
    ignore (Gpusim.Cache.access_read c ((i * 96) mod 16384))
  done;
  check_int "hits+misses=reads" c.stats.reads
    (c.stats.read_hits + c.stats.read_misses)

let qcheck_bigger_cache_no_more_misses =
  QCheck2.Test.make ~name:"bigger fully-assoc cache never misses more" ~count:50
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 63))
    (fun lines ->
      (* fully-associative LRU caches have the stack property *)
      let run size_lines =
        let c =
          Gpusim.Cache.create ~size:(size_lines * 64) ~assoc:size_lines ~line:64
        in
        List.iter (fun l -> ignore (Gpusim.Cache.access_read c (l * 64))) lines;
        c.stats.read_misses
      in
      run 8 >= run 16)

(* ----- mshr ----- *)

let test_mshr_merge () =
  let m = Gpusim.Mshr.create 4 in
  let t1 = Gpusim.Mshr.acquire m ~line:7 ~now:0 ~latency:(fun _ -> 100) in
  let t2 = Gpusim.Mshr.acquire m ~line:7 ~now:10 ~latency:(fun _ -> 100) in
  check_int "primary" 100 t1;
  check_int "secondary merges to same completion" 100 t2;
  check_int "one merge recorded" 1 m.merges

let test_mshr_stall_when_full () =
  let m = Gpusim.Mshr.create 2 in
  ignore (Gpusim.Mshr.acquire m ~line:1 ~now:0 ~latency:(fun _ -> 100));
  ignore (Gpusim.Mshr.acquire m ~line:2 ~now:0 ~latency:(fun _ -> 200));
  (* pool full: the next miss waits for the earliest completion (100) *)
  let t = Gpusim.Mshr.acquire m ~line:3 ~now:10 ~latency:(fun _ -> 50) in
  check "stalled past earliest completion" true (t >= 150);
  check "stall cycles recorded" true (m.stall_cycles >= 90)

let test_mshr_drains () =
  let m = Gpusim.Mshr.create 2 in
  ignore (Gpusim.Mshr.acquire m ~line:1 ~now:0 ~latency:(fun _ -> 10));
  ignore (Gpusim.Mshr.acquire m ~line:2 ~now:0 ~latency:(fun _ -> 10));
  (* by t=50 both retired: no stall *)
  let t = Gpusim.Mshr.acquire m ~line:3 ~now:50 ~latency:(fun _ -> 10) in
  check_int "no stall after drain" 60 t

(* ----- coalescer ----- *)

let test_coalesce_fully_coalesced () =
  let addrs = List.init 32 (fun i -> 4096 + (4 * i)) in
  check_int "one 128B txn" 1
    (Gpusim.Coalesce.transactions ~line_size:128 ~width:4 addrs);
  check_int "four 32B txns" 4
    (Gpusim.Coalesce.transactions ~line_size:32 ~width:4 addrs)

let test_coalesce_fully_divergent () =
  let addrs = List.init 32 (fun i -> 4096 + (1024 * i)) in
  check_int "32 txns" 32 (Gpusim.Coalesce.transactions ~line_size:128 ~width:4 addrs)

let test_coalesce_same_address () =
  let addrs = List.init 32 (fun _ -> 4096) in
  check_int "broadcast is one txn" 1
    (Gpusim.Coalesce.transactions ~line_size:128 ~width:4 addrs)

let test_coalesce_straddle () =
  (* a 4-byte access spanning a line boundary touches two lines *)
  check_int "straddle" 2 (Gpusim.Coalesce.transactions ~line_size:32 ~width:4 [ 30 ])

let qcheck_coalesce_bounds =
  QCheck2.Test.make ~name:"1 <= txns <= lanes+straddles" ~count:200
    QCheck2.Gen.(list_size (int_range 1 32) (int_range 0 100_000))
    (fun addrs ->
      let addrs = List.map (fun a -> a * 4) addrs in
      let t = Gpusim.Coalesce.transactions ~line_size:128 ~width:4 addrs in
      t >= 1 && t <= 2 * List.length addrs)

(* ----- heap ----- *)

let qcheck_heap_sorted =
  QCheck2.Test.make ~name:"heap pops in key order" ~count:100
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 1000))
    (fun keys ->
      let h = Gpusim.Heap.create () in
      List.iter (fun k -> Gpusim.Heap.push h k k) keys;
      let rec drain acc =
        match Gpusim.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

(* ----- devmem ----- *)

let test_devmem_rw () =
  let d = Gpusim.Devmem.create () in
  let a = Gpusim.Devmem.malloc d 64 in
  Gpusim.Devmem.write_f32 d a 3.25;
  check "f32 roundtrip" true (Gpusim.Devmem.read_f32 d a = 3.25);
  Gpusim.Devmem.write_i32 d (a + 4) (-7);
  check_int "i32 roundtrip" (-7) (Gpusim.Devmem.read_i32 d (a + 4));
  Gpusim.Devmem.write_u8 d (a + 8) 200;
  check_int "u8 roundtrip" 200 (Gpusim.Devmem.read_u8 d (a + 8))

let test_devmem_alignment () =
  let d = Gpusim.Devmem.create () in
  let a = Gpusim.Devmem.malloc d 3 in
  let b = Gpusim.Devmem.malloc d 3 in
  check_int "256B aligned" 0 (a mod 256);
  check_int "no overlap" 0 (b mod 256);
  check "distinct" true (a <> b)

let test_devmem_faults () =
  let d = Gpusim.Devmem.create () in
  let a = Gpusim.Devmem.malloc d 16 in
  check "oob faults" true
    (match Gpusim.Devmem.read_i32 d (a + 1024) with
    | _ -> false
    | exception Gpusim.Devmem.Fault _ -> true);
  check "null faults" true
    (match Gpusim.Devmem.read_i32 d 0 with
    | _ -> false
    | exception Gpusim.Devmem.Fault _ -> true);
  check "zero-size malloc rejected" true
    (match Gpusim.Devmem.malloc d 0 with
    | _ -> false
    | exception Gpusim.Devmem.Fault _ -> true)

let test_devmem_blit () =
  let a = Gpusim.Devmem.create () and b = Gpusim.Devmem.create () in
  let pa = Gpusim.Devmem.malloc a 64 and pb = Gpusim.Devmem.malloc b 64 in
  Gpusim.Devmem.write_f32_array a pa [| 1.; 2.; 3. |];
  Gpusim.Devmem.blit ~src:a ~src_addr:pa ~dst:b ~dst_addr:pb ~bytes:12;
  check "blit copies" true (Gpusim.Devmem.read_f32_array b pb 3 = [| 1.; 2.; 3. |])

(* ----- execution engine ----- *)

let test_divergent_execution () =
  let src =
    {|
__global__ void k(int* out) {
  int tid = threadIdx.x;
  if (tid % 2 == 0) { out[tid] = 100 + tid; }
  else { out[tid] = 200 + tid; }
}
|}
  in
  let out = ref 0 in
  let dev, result, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(64, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  let v = Testutil.i32s dev !out 64 in
  check "even lanes" true (v.(0) = 100 && v.(2) = 102);
  check "odd lanes" true (v.(1) = 201 && v.(3) = 203);
  check "divergence recorded" true (result.stats.divergent_branches > 0)

let test_barrier_reduction () =
  (* tree reduction over shared memory: wrong barrier handling would
     produce a wrong sum *)
  let src =
    {|
__global__ void k(int* out, int* data) {
  __shared__ int tile[64];
  int tid = threadIdx.x;
  tile[tid] = data[tid];
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (tid < s) { tile[tid] = tile[tid] + tile[tid + s]; }
    __syncthreads();
  }
  if (tid == 0) { out[0] = tile[0]; }
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(64, 1)
      ~setup:(fun dev ->
        let o = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 64 in
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := o;
        Gpusim.Devmem.write_i32_array dev.Gpusim.Gpu.devmem d (Array.init 64 Fun.id);
        [ Gpusim.Value.I o; Gpusim.Value.I d ])
      src
  in
  check_int "sum 0..63" 2016 (Gpusim.Devmem.read_i32 dev.Gpusim.Gpu.devmem !out)

let test_atomics () =
  let src =
    {|
__global__ void k(int* counter) {
  int old = atomicAdd(&counter[0], 1);
  counter[1 + old] = 1;
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~grid:(2, 1) ~block:(64, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 256) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  check_int "128 increments" 128 (Gpusim.Devmem.read_i32 dev.Gpusim.Gpu.devmem !out);
  (* every thread observed a unique old value *)
  let marks = Testutil.i32s dev (!out + 4) 128 in
  check "all slots marked" true (Array.for_all (fun v -> v = 1) marks)

let test_2d_grid () =
  let src =
    {|
__global__ void k(int* out, int w) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  out[y * w + x] = 10 * y + x;
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~grid:(2, 2) ~block:(4, 4)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := d;
        [ Gpusim.Value.I d; Gpusim.Value.I 8 ])
      src
  in
  let v = Testutil.i32s dev !out 64 in
  check_int "(0,0)" 0 v.(0);
  check_int "(x=7,y=0)" 7 v.(7);
  check_int "(x=3,y=5)" 53 v.((5 * 8) + 3);
  check_int "(x=7,y=7)" 77 v.(63)

let test_partial_warp () =
  let src = "__global__ void k(int* out) { out[threadIdx.x] = 1 + threadIdx.x; }" in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(40, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  let v = Testutil.i32s dev !out 64 in
  check_int "lane 39 wrote" 40 v.(39);
  check_int "lane 40 untouched" 0 v.(40)

let test_many_ctas_schedule () =
  (* more CTAs than SM slots: the CTA scheduler must run them all *)
  let src = "__global__ void k(int* out) { int g = blockIdx.x * blockDim.x + threadIdx.x; out[g] = g; }" in
  let out = ref 0 in
  let dev, result, _ =
    Testutil.run_kernel ~kernel:"k" ~grid:(400, 1) ~block:(32, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 400 * 32) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  check_int "all ctas ran" 400 result.ctas;
  let v = Testutil.i32s dev !out (400 * 32) in
  check "all threads wrote" true (Array.for_all2 ( = ) v (Array.init (400 * 32) Fun.id))

let test_division_by_zero_traps () =
  let src = "__global__ void k(int* out, int n) { out[0] = 10 / n; }" in
  check "trap" true
    (match
       Testutil.run_kernel ~kernel:"k" ~block:(1, 1)
         ~setup:(fun dev ->
           let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 64 in
           [ Gpusim.Value.I d; Gpusim.Value.I 0 ])
         src
     with
    | _ -> false
    | exception Gpusim.Exec.Trap _ -> true)

let test_launch_argument_check () =
  let src = "__global__ void k(int* out) { out[0] = 1; }" in
  check "arity mismatch rejected" true
    (match
       Testutil.run_kernel ~kernel:"k" ~block:(1, 1) ~setup:(fun _ -> []) src
     with
    | _ -> false
    | exception Gpusim.Gpu.Launch_error _ -> true)

let test_timing_monotonic_with_work () =
  let run n =
    let src =
      "__global__ void k(float* a, int n) { int t = threadIdx.x; float s = 0.0f; for (int i = 0; i < n; i = i + 1) { s = s + a[t]; } a[t] = s; }"
    in
    let _, result, _ =
      Testutil.run_kernel ~kernel:"k" ~block:(32, 1)
        ~setup:(fun dev ->
          let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 32) in
          [ Gpusim.Value.I d; Gpusim.Value.I n ])
        src
    in
    result.cycles
  in
  check "more iterations cost more cycles" true (run 100 > run 10)

let test_l1_disabled_more_l2_traffic () =
  let src =
    "__global__ void k(float* a) { float s = 0.0f; for (int i = 0; i < 64; i = i + 1) { s = s + a[threadIdx.x]; } a[threadIdx.x] = s; }"
  in
  let run l1_enabled =
    let m = Minicuda.Frontend.compile ~file:"t.cu" src in
    let prog = Ptx.Codegen.gen_module m in
    let dev = Gpusim.Gpu.create_device (Gpusim.Arch.kepler_k40c ()) in
    let d = Gpusim.Devmem.malloc dev.devmem (4 * 32) in
    let r =
      Gpusim.Gpu.launch ~l1_enabled dev ~prog ~kernel:"k" ~grid:(1, 1) ~block:(32, 1)
        ~args:[ Gpusim.Value.I d ] ()
    in
    r.l2_stats.reads
  in
  check "disabling L1 sends reads to L2" true (run false > run true)


let test_math_intrinsics () =
  let src =
    {|
__global__ void k(float* out, float x) {
  out[0] = sqrtf(x);
  out[1] = expf(0.0f);
  out[2] = logf(1.0f);
  out[3] = fabsf(0.0f - x);
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(1, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 64 in
        out := d;
        [ Gpusim.Value.I d; Gpusim.Value.F 9.0 ])
      src
  in
  let v = Testutil.f32s dev !out 4 in
  check "sqrt" true (abs_float (v.(0) -. 3.0) < 1e-6);
  check "exp" true (abs_float (v.(1) -. 1.0) < 1e-6);
  check "log" true (abs_float v.(2) < 1e-6);
  check "fabs" true (abs_float (v.(3) -. 9.0) < 1e-6)

let test_early_return_in_divergent_loop () =
  (* threads exit the loop at data-dependent iterations; later code must
     still run for the surviving lanes and masks must be restored *)
  let src =
    {|
__global__ void k(int* out) {
  int tid = threadIdx.x;
  int i = 0;
  while (i < 100) {
    if (i == tid) { out[tid] = 1000 + tid; return; }
    i = i + 1;
  }
  out[tid] = -1;
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(64, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  let v = Testutil.i32s dev !out 64 in
  check "every lane returned its value" true
    (Array.for_all2 (fun got tid -> got = 1000 + tid) v (Array.init 64 Fun.id))

let test_device_call_under_divergence () =
  (* a device function invoked by half the warp must not disturb the
     other half *)
  let src =
    {|
__device__ int bump(int x) {
  if (x > 30) { return x + 100; }
  return x + 1;
}
__global__ void k(int* out) {
  int tid = threadIdx.x;
  if (tid % 2 == 0) { out[tid] = bump(tid); }
  else { out[tid] = -tid; }
}
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(64, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem (4 * 64) in
        out := d;
        [ Gpusim.Value.I d ])
      src
  in
  let v = Testutil.i32s dev !out 64 in
  let expect tid =
    if tid mod 2 = 0 then (if tid > 30 then tid + 100 else tid + 1) else -tid
  in
  check "divergent call correct" true
    (Array.for_all2 (fun got tid -> got = expect tid) v (Array.init 64 Fun.id))

let test_warpid_sreg () =
  (* the %warpid register used by the bypass prologue *)
  let m = Minicuda.Frontend.compile ~file:"t.cu" "__global__ void k(int* out) { out[threadIdx.x] = threadIdx.x; }" in
  let prog = Ptx.Codegen.gen_module m in
  let prog = Ptx.Bypass.rewrite_prog prog ~kernel:"k" ~warps_to_cache:1 in
  let dev = Gpusim.Gpu.create_device (Gpusim.Arch.kepler_k40c ()) in
  let d = Gpusim.Devmem.malloc dev.devmem (4 * 96) in
  ignore
    (Gpusim.Gpu.launch dev ~prog ~kernel:"k" ~grid:(1, 1) ~block:(96, 1)
       ~args:[ Gpusim.Value.I d ] ());
  check "rewritten kernel still correct" true
    (Gpusim.Devmem.read_i32_array dev.devmem d 96 = Array.init 96 Fun.id)

(* ----- scheduler counters ----- *)

(* Heap pops and operand requeues summed over a run's launches. *)
let sched_counts host =
  List.fold_left
    (fun (pops, requeues) (_, (r : Gpusim.Gpu.result)) ->
      (pops + r.stats.Gpusim.Stats.sched_pops, requeues + r.stats.Gpusim.Stats.requeues))
    (0, 0) (Hostrt.Host.launches host)

(* The counters are exact: two runs of one workload repeat them.  A
   native run pops the heap about once per step; a profiled run's
   serialized hook cost lets the popped warp keep running, so it pops
   less often. *)
let test_sched_counters () =
  let arch = Gpusim.Arch.kepler_k40c () in
  let w = Workloads.Registry.find "hotspot" in
  let native () = sched_counts (snd (Advisor.run_native ~arch w)) in
  let profiled () = sched_counts (Advisor.profile ~arch w).Advisor.host in
  let n1 = native () and n2 = native () in
  let p1 = profiled () and p2 = profiled () in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "native repeats" n1 n2;
  Alcotest.check pair "profiled repeats" p1 p2;
  Alcotest.(check bool) "requeues counted" true (snd n1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "native pops %d > profiled pops %d" (fst n1) (fst p1))
    true
    (fst n1 > fst p1)

let () =
  Alcotest.run "gpusim"
    [
      ( "cache",
        [ Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "write-evict" `Quick test_cache_write_evict;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "stats consistent" `Quick test_cache_stats_consistency;
          QCheck_alcotest.to_alcotest qcheck_bigger_cache_no_more_misses ] );
      ( "mshr",
        [ Alcotest.test_case "merge" `Quick test_mshr_merge;
          Alcotest.test_case "stall when full" `Quick test_mshr_stall_when_full;
          Alcotest.test_case "drains" `Quick test_mshr_drains ] );
      ( "coalesce",
        [ Alcotest.test_case "coalesced" `Quick test_coalesce_fully_coalesced;
          Alcotest.test_case "divergent" `Quick test_coalesce_fully_divergent;
          Alcotest.test_case "broadcast" `Quick test_coalesce_same_address;
          Alcotest.test_case "straddle" `Quick test_coalesce_straddle;
          QCheck_alcotest.to_alcotest qcheck_coalesce_bounds ] );
      ("heap", [ QCheck_alcotest.to_alcotest qcheck_heap_sorted ]);
      ( "devmem",
        [ Alcotest.test_case "roundtrip" `Quick test_devmem_rw;
          Alcotest.test_case "alignment" `Quick test_devmem_alignment;
          Alcotest.test_case "faults" `Quick test_devmem_faults;
          Alcotest.test_case "blit" `Quick test_devmem_blit ] );
      ( "execution",
        [ Alcotest.test_case "divergence" `Quick test_divergent_execution;
          Alcotest.test_case "barrier reduction" `Quick test_barrier_reduction;
          Alcotest.test_case "atomics" `Quick test_atomics;
          Alcotest.test_case "2d grid" `Quick test_2d_grid;
          Alcotest.test_case "partial warp" `Quick test_partial_warp;
          Alcotest.test_case "cta scheduler" `Quick test_many_ctas_schedule;
          Alcotest.test_case "div-by-zero trap" `Quick test_division_by_zero_traps;
          Alcotest.test_case "argument check" `Quick test_launch_argument_check;
          Alcotest.test_case "math intrinsics" `Quick test_math_intrinsics;
          Alcotest.test_case "early return in loop" `Quick test_early_return_in_divergent_loop;
          Alcotest.test_case "divergent device call" `Quick test_device_call_under_divergence;
          Alcotest.test_case "warpid sreg" `Quick test_warpid_sreg ] );
      ( "timing",
        [ Alcotest.test_case "monotonic in work" `Quick test_timing_monotonic_with_work;
          Alcotest.test_case "l1 toggle" `Quick test_l1_disabled_more_l2_traffic ] );
      ("scheduler", [ Alcotest.test_case "counters" `Quick test_sched_counters ]);
    ]
