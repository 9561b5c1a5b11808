(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections 4 and 5).  Run all sections with

     dune exec bench/main.exe

   or a subset, e.g. `dune exec bench/main.exe -- fig4 table3`.  The
   [bech] section additionally runs Bechamel micro-benchmarks of the
   framework's own pipelines (one Test.make per table/figure).

   `--json FILE` additionally records per-section wall-clock seconds
   (and, when the bech section runs, its ns/run estimates) as JSON.
   Independent experiments fan out across domains via [Pool]; set
   POOL_DOMAINS=1 to force sequential runs. *)

let kepler16 () = Gpusim.Arch.kepler_k40c ~l1_kb:16 ()
let kepler48 () = Gpusim.Arch.kepler_k40c ~l1_kb:48 ()
let pascal () = Gpusim.Arch.pascal_p100 ()

(* The paper's evaluation inputs put ~8 CTAs on each SM; our inputs are
   scaled down ~10x, so the bypassing experiments scale the SM count as
   well to preserve per-SM occupancy — the quantity that determines L1
   contention (see DESIGN.md). *)
let kepler_bypass l1_kb = Gpusim.Arch.kepler_k40c ~num_sms:5 ~l1_kb ()
let pascal_bypass () = Gpusim.Arch.pascal_p100 ~num_sms:8 ()

let bypass_apps = [ "bfs"; "hotspot"; "bicg"; "syrk"; "syr2k" ]

let heading title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let section s = Printf.printf "\n--- %s ---\n%!" s

(* Profile sessions are shared across fig4/fig5/table3/fig8/fig9: those
   metrics are architecture-independent program properties (the paper
   runs reuse distance on Kepler only and notes that branch divergence
   is architecture-independent). *)
let sessions : (string, Advisor.session) Hashtbl.t = Hashtbl.create 16

(* Profile any not-yet-cached sessions of [names] in parallel, then
   publish them to the (domain-unsafe) cache from the main domain. *)
let prewarm names =
  let missing =
    List.sort_uniq compare names
    |> List.filter (fun n -> not (Hashtbl.mem sessions n))
  in
  Pool.map
    (fun n -> (n, Advisor.profile ~arch:(kepler16 ()) (Workloads.Registry.find n)))
    missing
  |> List.iter (fun (n, s) -> Hashtbl.replace sessions n s)

let session_of name =
  match Hashtbl.find_opt sessions name with
  | Some s -> s
  | None ->
    let w = Workloads.Registry.find name in
    let s = Advisor.profile ~arch:(kepler16 ()) w in
    Hashtbl.replace sessions name s;
    s

let all_names = List.map (fun (w : Workloads.Common.t) -> w.name) Workloads.Registry.all

(* ----- Table 1 ----- *)

let table1 () =
  heading "Table 1: GPU architectures for evaluation";
  Printf.printf "%-14s %-45s %-4s %-6s %-6s %-4s\n" "Architecture" "GPU" "CC."
    "L1" "line" "SMs";
  List.iter
    (fun (a : Gpusim.Arch.t) ->
      Printf.printf "%-14s %-45s %-4s %-6s %-6d %-4d\n"
        (if a.compute_capability = "3.5" then "Kepler" else "Pascal")
        a.name a.compute_capability
        (Printf.sprintf "%dKB" (a.l1_size / 1024))
        a.line_size a.num_sms)
    [ kepler16 (); kepler48 (); pascal () ]

(* ----- Table 2 ----- *)

let table2 () =
  heading "Table 2: benchmarks";
  Printf.printf "%-10s %-40s %-9s %s\n" "App" "Description" "warps/CTA" "Input";
  List.iter
    (fun (w : Workloads.Common.t) ->
      Printf.printf "%-10s %-40s %-9d %s\n" w.name w.description w.warps_per_cta
        w.input_desc)
    Workloads.Registry.all

(* ----- Figure 4: reuse distance ----- *)

(* bfs and nn are excluded (>99% no-reuse) and syr2k resembles syrk, as
   in the paper. *)
let fig4_apps = [ "backprop"; "hotspot"; "lavaMD"; "nw"; "srad_v2"; "bicg"; "syrk" ]

let fig4 () =
  heading "Figure 4: reuse distance analysis (Kepler)";
  prewarm (fig4_apps @ [ "bfs"; "nn" ]);
  Printf.printf "%-10s" "App";
  List.iter
    (fun b -> Printf.printf " %8s" (Analysis.Reuse_distance.bucket_label b))
    Analysis.Reuse_distance.buckets;
  Printf.printf " %10s\n" "mean(fin)";
  List.iter
    (fun name ->
      let s = session_of name in
      let rd = Advisor.reuse_distance s in
      Printf.printf "%-10s" name;
      List.iter
        (fun b ->
          Printf.printf " %7.1f%%" (100. *. Analysis.Reuse_distance.fraction rd b))
        Analysis.Reuse_distance.buckets;
      Printf.printf " %10.1f\n%!" rd.mean_finite_distance)
    fig4_apps;
  List.iter
    (fun name ->
      let s = session_of name in
      let rd = Advisor.reuse_distance s in
      Printf.printf "%-10s excluded: %.1f%% no-reuse (paper: >99%%)\n%!" name
        (100. *. Analysis.Reuse_distance.no_reuse_fraction rd))
    [ "bfs"; "nn" ]

(* ----- Figure 5: memory divergence ----- *)

let fig5_arch label line_size =
  section
    (Printf.sprintf "Figure 5(%s): unique cache lines touched per warp access" label);
  Printf.printf "%-10s" "App";
  let cols = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter (fun c -> Printf.printf " %7s" (Printf.sprintf "=%d" c)) cols;
  Printf.printf " %8s %8s\n" "other" "degree";
  List.iter
    (fun (w : Workloads.Common.t) ->
      let s = session_of w.name in
      let md = Advisor.mem_divergence ~line_size s in
      let shown =
        List.map (fun c -> 100. *. Analysis.Mem_divergence.fraction md c) cols
      in
      let other = Float.max 0. (100. -. List.fold_left ( +. ) 0. shown) in
      Printf.printf "%-10s" w.name;
      List.iter (fun v -> Printf.printf " %6.1f%%" v) shown;
      Printf.printf " %7.1f%% %8.2f\n%!" other md.degree)
    Workloads.Registry.all

let fig5 () =
  heading "Figure 5: memory divergence distribution";
  prewarm all_names;
  fig5_arch "a: Kepler, 128B lines" 128;
  fig5_arch "b: Pascal, 32B lines" 32

(* ----- Table 3: branch divergence ----- *)

let table3 () =
  heading "Table 3: branch divergence (architecture-independent)";
  prewarm all_names;
  Printf.printf "%-10s %18s %14s %14s\n" "App" "# divergent blocks" "# total blocks"
    "% divergence";
  List.iter
    (fun (w : Workloads.Common.t) ->
      let s = session_of w.name in
      let bd = Advisor.branch_divergence s in
      Printf.printf "%-10s %18d %14d %13.2f%%\n%!" w.name bd.divergent_blocks
        bd.total_blocks
        (Analysis.Branch_divergence.percent bd))
    Workloads.Registry.all

(* ----- Figures 6/7: horizontal cache bypassing ----- *)

let bypass_table label arch =
  section label;
  Printf.printf "%-10s %8s %14s %16s\n" "App" "baseline" "oracle(norm)"
    "prediction(norm)";
  (* the per-app studies are independent: compute in parallel, print in
     order (each study still fans out its own sweep when domains remain) *)
  let studies =
    Pool.map
      (fun name -> Advisor.bypass_study ~arch (Workloads.Registry.find name))
      bypass_apps
  in
  let gaps =
    List.map
      (fun (b : Advisor.bypass_experiment) ->
        let norm c = float_of_int c /. float_of_int b.baseline_cycles in
        Printf.printf "%-10s %8s %14s %16s   oracle=N%d pred=N%d\n%!" b.app "1.000"
          (Printf.sprintf "%.3f" (norm b.oracle_cycles))
          (Printf.sprintf "%.3f" (norm b.predicted_cycles))
          b.oracle_warps b.predicted_warps;
        float_of_int b.predicted_cycles /. float_of_int b.oracle_cycles)
      studies
  in
  let n = List.length gaps in
  let avg = List.fold_left ( +. ) 0. gaps /. float_of_int n in
  Printf.printf "prediction is on average %.1f%% slower than oracle (paper: 4-7%%)\n%!"
    (100. *. (avg -. 1.))

let fig6 () =
  heading "Figure 6: horizontal bypassing on Kepler (normalized time, lower=better)";
  bypass_table "16KB L1" (kepler_bypass 16);
  bypass_table "48KB L1" (kepler_bypass 48)

let fig7 () =
  heading "Figure 7: horizontal bypassing on Pascal (24KB unified L1)";
  bypass_table "24KB unified" (pascal_bypass ())

(* ----- Figures 8/9: code- and data-centric debugging views ----- *)

(* The busiest Kernel instance (the widest frontier iteration), where
   the paper's walkthrough finds the divergent access. *)
let bfs_kernel_instance () =
  let s = session_of "bfs" in
  let instances =
    List.filter
      (fun (i : Profiler.Profile.instance) -> i.kernel = "Kernel")
      (Advisor.instances s)
  in
  let busiest =
    List.fold_left
      (fun acc (i : Profiler.Profile.instance) ->
        match acc with
        | Some (best : Profiler.Profile.instance) when best.mem_count >= i.mem_count ->
          acc
        | _ -> Some i)
      None instances
  in
  (s, Option.get busiest)

let fig8 () =
  heading "Figure 8: code-centric view (bfs)";
  let s, instance = bfs_kernel_instance () in
  print_string
    (Analysis.Views.divergent_sites_report s.profiler instance ~line_size:128 ~top:2)

let fig9 () =
  heading "Figure 9: data-centric view (bfs)";
  let s, instance = bfs_kernel_instance () in
  print_string
    (Analysis.Views.data_centric_report s.profiler instance ~line_size:128 ~top:3)

(* ----- Figure 10: instrumentation overhead ----- *)

let fig10 () =
  heading "Figure 10: runtime overhead of memory + control-flow instrumentation";
  Printf.printf "%-10s %14s %14s\n" "App" "Kepler" "Pascal";
  Pool.map
    (fun (w : Workloads.Common.t) ->
      let k = Advisor.overhead_study ~arch:(kepler16 ()) w in
      let p = Advisor.overhead_study ~arch:(pascal ()) w in
      (w.name, k.slowdown, p.slowdown))
    Workloads.Registry.all
  |> List.iter (fun (name, k, p) ->
         Printf.printf "%-10s %13.1fx %13.1fx\n%!" name k p)

(* ----- Extension: vertical bypassing (the other scheme of 4.2-(D)) ----- *)

let vertical () =
  heading "Extension: vertical (per-instruction) bypassing, Kepler 16KB";
  Printf.printf "%-10s %10s %10s %8s %s\n" "App" "baseline" "vertical" "speedup"
    "bypassed sites";
  Pool.map
    (fun name ->
      Advisor.vertical_bypass_study ~arch:(kepler_bypass 16)
        (Workloads.Registry.find name))
    [ "bicg"; "hotspot"; "nn"; "syr2k" ]
  |> List.iter (fun (v : Advisor.vertical_experiment) ->
         Printf.printf "%-10s %10d %10d %7.2fx %d of %d load sites\n%!" v.v_app
           v.v_baseline_cycles v.v_cycles
           (float_of_int v.v_baseline_cycles /. float_of_int v.v_cycles)
           v.v_sites_bypassed v.v_sites_total)

(* ----- Ablations of the design choices DESIGN.md calls out ----- *)

let ablation () =
  heading "Ablation: simulator mechanisms behind the bypassing results";
  let bicg = Workloads.Registry.find "bicg" in
  section "MSHR pool size (bicg baseline, Kepler 16KB, 5 SMs)";
  List.iter
    (fun entries ->
      let arch0 = kepler_bypass 16 in
      let arch = { arch0 with Gpusim.Arch.mshr_entries = entries } in
      let cycles, _ = Advisor.run_native ~arch bicg in
      Printf.printf "  %3d MSHRs: %9d cycles\n%!" entries cycles)
    [ 16; 32; 64; 128 ];
  section "DRAM service rate (bicg baseline, cycles per 128B transaction)";
  List.iter
    (fun service ->
      let arch0 = kepler_bypass 16 in
      let arch = { arch0 with Gpusim.Arch.dram_service = service } in
      let cycles, _ = Advisor.run_native ~arch bicg in
      Printf.printf "  %d cyc/txn: %9d cycles\n%!" service cycles)
    [ 1; 2; 4; 8 ];
  section "Hook cost model (nn overhead study, Kepler)";
  List.iter
    (fun (base, lane, txn) ->
      let arch0 = kepler16 () in
      let arch =
        { arch0 with
          Gpusim.Arch.hook =
            { hook_base = base; hook_per_lane = lane; hook_mem_txn = txn } }
      in
      let o = Advisor.overhead_study ~arch (Workloads.Registry.find "nn") in
      Printf.printf "  base=%2d per-lane=%d txn=%3d  -> %6.1fx slowdown\n%!" base
        lane txn o.slowdown)
    [ (0, 0, 0); (12, 3, 50); (30, 12, 60) ]

(* ----- Bechamel micro-benchmarks of the framework itself ----- *)

(* ns/run estimates of the last [bech] run, kept for `--json`. *)
let bech_rows : (string * float) list ref = ref []

let bechamel () =
  heading "Bechamel micro-benchmarks (framework pipelines)";
  let open Bechamel in
  let nn = Workloads.Registry.find "nn" in
  let compiled = Workloads.Common.compile nn in
  let session = session_of "nn" in
  let instance = List.hd (Advisor.instances session) in
  let trace = instance.Profiler.Profile.trace in
  let tests =
    Test.make_grouped ~name:"cudaadvisor"
      [
        Test.make ~name:"table2-compile+instrument"
          (Staged.stage (fun () ->
               let m = Workloads.Common.compile nn in
               ignore (Passes.Instrument.run m)));
        Test.make ~name:"fig2-ptx-codegen"
          (Staged.stage (fun () -> ignore (Ptx.Codegen.gen_module compiled)));
        Test.make ~name:"table1-simulate-nn"
          (Staged.stage (fun () ->
               ignore (Advisor.run_native ~arch:(kepler16 ()) nn)));
        Test.make ~name:"fig4-reuse-distance"
          (Staged.stage (fun () -> ignore (Analysis.Reuse_distance.of_trace trace)));
        Test.make ~name:"fig8-report-nn"
          (Staged.stage (fun () ->
               ignore
                 (Analysis.Report.of_profile ~app:"nn"
                    ~arch_name:session.Advisor.arch.Gpusim.Arch.name
                    ~line_size:session.Advisor.arch.Gpusim.Arch.line_size
                    session.Advisor.profiler
                 |> Analysis.Json.to_string)));
        Test.make ~name:"fig5-mem-divergence"
          (Staged.stage (fun () ->
               ignore (Analysis.Mem_divergence.of_trace ~line_size:128 trace)));
        Test.make ~name:"table3-branch-divergence"
          (Staged.stage (fun () ->
               ignore
                 (Analysis.Branch_divergence.of_instances
                    (Advisor.instances session))));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  bech_rows := [];
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (t :: _) ->
        bech_rows := (name, t) :: !bech_rows;
        Printf.printf "  %-40s %12.1f ns/run\n" name t
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows)

(* ----- smoke: one native launch per workload -----

   A seconds-long end-to-end pass over every workload (compile ->
   codegen -> simulate), for quick sanity checks and CI.  Exposed both
   as the [smoke] section and as `--smoke` / the dune @smoke alias. *)

let smoke () =
  heading "Smoke: one native launch per workload";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (w : Workloads.Common.t) ->
      let t = Unix.gettimeofday () in
      let cycles, _host = Advisor.run_native ~arch:(kepler16 ()) w in
      Printf.printf "  %-10s %10d cycles  %6.2fs\n%!" w.name cycles
        (Unix.gettimeofday () -. t))
    Workloads.Registry.all;
  (* Self-profiling self-check: one traced nn profile must export a
     Chrome trace that parses as JSON.  The @smoke alias runs this, so
     CI fails on malformed exporter output. *)
  let was_enabled = Obs.Trace.enabled () in
  Obs.Trace.enable ();
  ignore (Advisor.profile ~arch:(kepler16 ()) (Workloads.Registry.find "nn"));
  let chrome = Obs.Trace.export_chrome () in
  if not was_enabled then Obs.Trace.disable ();
  (match Obs.Jsonv.parse chrome with
  | Ok _ ->
    Printf.printf "trace self-check: %d events, JSON parses\n%!"
      (Obs.Trace.event_count ())
  | Error msg ->
    Printf.eprintf "trace self-check FAILED: exported trace is not valid JSON (%s)\n%!"
      msg;
    exit 1);
  Printf.printf "smoke total: %.2fs\n%!" (Unix.gettimeofday () -. t0)

(* ----- serve: daemon throughput and overlapping cold compiles ----- *)

(* Distinct synthetic sources big enough that compile time dominates
   scheduling noise. *)
let gen_kernels ~tag n =
  let b = Buffer.create (n * 160) in
  for i = 0 to n - 1 do
    Printf.bprintf b
      "__global__ void k%d_%s(float* a, int n) {\n\
      \  int i = blockDim.x * blockIdx.x + threadIdx.x;\n\
      \  if (i < n) { a[i] = a[i] * %d.0 + 1.0; }\n}\n"
      i tag (i + 1)
  done;
  Buffer.contents b

let serve_bench () =
  heading "Serve: overlapping cold compiles and daemon throughput";
  let time f =
    let t = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t
  in
  (* Cold-compile latency isolation: per-key in-flight tracking means a
     cheap compile runs concurrently with an expensive one instead of
     queueing behind it on the old whole-cache lock (under which the
     small compile's latency would be ~the big compile's). *)
  let compile tag n file = ignore (Advisor.compile_source ~file (gen_kernels ~tag n)) in
  let small_alone = time (fun () -> compile "small_alone" 50 "bench-serve-sa.cu") in
  let big_alone = time (fun () -> compile "big_alone" 3000 "bench-serve-ba.cu") in
  let _, misses0 = Advisor.compile_cache_stats () in
  let big = Domain.spawn (fun () -> compile "big_infl" 3000 "bench-serve-bi.cu") in
  (* wait for the big compile to claim its key (miss counted at claim) *)
  while snd (Advisor.compile_cache_stats ()) <= misses0 do
    Domain.cpu_relax ()
  done;
  let small_during = time (fun () -> compile "small_during" 50 "bench-serve-sd.cu") in
  Domain.join big;
  Printf.printf
    "  cold compile of 50 kernels: %5.1f ms alone, %5.1f ms while a 3000-kernel \
     compile is in flight\n  (the pre-fix whole-cache lock pinned the latter to \
     the big compile's %.0f ms)\n%!"
    (small_alone *. 1000.) (small_during *. 1000.) (big_alone *. 1000.);
  (* Daemon round-trip throughput: an in-process daemon on a Unix
     socket, a batch of profile requests, warm compile cache. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "advisor-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      Serve.Server.default_config with
      socket_path = Some path;
      stdio = false;
      workers = 4;
      queue_cap = 64;
      default_timeout_ms = Some 300_000;
      (* cache off: this section measures raw daemon round-trip cost;
         the cached path is the servefleet section's subject *)
      cache = None;
    }
  in
  let srv = Serve.Server.create cfg in
  let daemon = Domain.spawn (fun () -> Serve.Server.run srv) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
      Unix.sleepf 0.01;
      connect (tries - 1)
  in
  connect 200;
  let requests = 32 in
  let elapsed =
    time (fun () ->
        for i = 1 to requests do
          let line =
            Printf.sprintf {|{"id": %d, "op": "profile", "app": "nn"}|} i ^ "\n"
          in
          let data = Bytes.of_string line in
          ignore (Unix.write fd data 0 (Bytes.length data))
        done;
        let buf = Bytes.create 65536 in
        let seen = ref 0 in
        while !seen < requests do
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then failwith "serve bench: daemon closed the connection";
          Bytes.iteri (fun i c -> if i < n && c = '\n' then incr seen) buf
        done)
  in
  Unix.close fd;
  Serve.Server.request_shutdown srv;
  Domain.join daemon;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Printf.printf
    "  %d served profile(nn) round-trips on 4 workers: %.2fs (%.1f req/s)\n%!"
    requests elapsed (float_of_int requests /. elapsed)

(* ----- servefleet: result-cache latency of one daemon -----

   Launches a real `advisor serve` process through the CLI binary,
   replays a hot/cold request mix against it, and reports cold vs
   cached p50/p99 latency plus pipelined hot and cold throughput.  The
   section and its JSON key keep their old names because the bench gate
   and the committed baseline address the row as serve_fleet."1". *)

let fleet_rows : (string * Analysis.Json.t) list ref = ref []

let cli_binary () =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "advisor_cli.exe"

type bconn = { bfd : Unix.file_descr; mutable bbuf : string }

let bconnect path =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { bfd = fd; bbuf = "" }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let bsend c line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.bfd data !off (len - !off)
  done

let bread_line c =
  let rec go () =
    match String.index_opt c.bbuf '\n' with
    | Some i ->
      let line = String.sub c.bbuf 0 i in
      c.bbuf <- String.sub c.bbuf (i + 1) (String.length c.bbuf - i - 1);
      line
    | None ->
      let b = Bytes.create 65536 in
      let n = Unix.read c.bfd b 0 (Bytes.length b) in
      if n = 0 then failwith "serve bench: daemon closed the connection";
      c.bbuf <- c.bbuf ^ Bytes.sub_string b 0 n;
      go ()
  in
  go ()

let pct values p =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (p * n / 100))

(* Run [f] against a fresh `advisor serve --workers 2 <flags>` on a
   private socket; the daemon is stopped with SIGTERM afterwards. *)
let with_bench_daemon ~name flags f =
  let cli = cli_binary () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "advisor-servebench-%d-%s.sock" (Unix.getpid ()) name)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list ([ cli; "serve"; "--socket"; path; "--workers"; "2" ] @ flags))
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let c = bconnect path in
      Fun.protect ~finally:(fun () -> Unix.close c.bfd) (fun () -> f c))

let serve_fleet_bench () =
  heading "Serve: cached-result latency and throughput (one daemon)";
  let cli = cli_binary () in
  if not (Sys.file_exists cli) then
    Printf.printf "  skipped: %s not found (run from the dune build tree)\n%!"
      cli
  else begin
    fleet_rows := [];
    (* the hot/cold keyspace: two linear-scaling apps on two
       architectures — cheap enough that cold passes at several scales
       stay in seconds (hotspot/lavaMD grow quadratically or worse) *)
    let apps =
      List.filter
        (fun a -> Workloads.Registry.find_opt a <> None)
        [ "nn"; "bfs" ]
    in
    let keys =
      List.concat_map
        (fun app -> List.map (fun arch -> (app, arch)) [ "kepler"; "pascal" ])
        apps
    in
    let req i (app, arch) =
      Printf.sprintf
        {|{"id": %d, "op": "profile", "app": "%s", "arch": "%s"}|} i app arch
    in
    let round_trip c i k =
      let t0 = Unix.gettimeofday () in
      bsend c (req i k);
      ignore (bread_line c);
      (Unix.gettimeofday () -. t0) *. 1000.
    in
    (* PR 5 baseline: the same hot request against a --no-cache daemon
       recomputes the simulation every time (warm compile/decode
       caches — exactly the pre-result-cache serving cost) *)
    with_bench_daemon ~name:"base" [ "--no-cache" ] (fun c ->
        ignore (round_trip c 0 (List.hd keys)) (* warm the compile/decode caches *);
        let samples = List.init 10 (fun i -> round_trip c i (List.hd keys)) in
        let p50 = pct samples 50 in
        Printf.printf "  no-cache baseline: repeated profile p50 %7.1f ms\n%!"
          p50;
        fleet_rows :=
          ("baseline_no_cache_hot_ms_p50", Analysis.Json.Float p50) :: !fleet_rows);
    with_bench_daemon ~name:"cached" [] (fun c ->
        (* readiness: one answered ping before anything is timed *)
        bsend c {|{"id": "r", "op": "ping"}|};
        ignore (bread_line c);
        (* cold pass: every key once, nothing cached yet *)
        let cold = List.mapi (round_trip c) keys in
        (* hot passes: the same keys, now served from the cache *)
        let hot = ref [] in
        for _round = 1 to 5 do
          hot := List.mapi (round_trip c) keys @ !hot
        done;
        (* pipelined cold throughput: distinct compute-bound keys
           (scales past the defaults) *)
        let cold_keys =
          List.concat_map
            (fun (app, arch) ->
              List.map (fun scale -> (app, arch, scale)) [ 3; 4 ])
            keys
        in
        let t0 = Unix.gettimeofday () in
        List.iteri
          (fun i (app, arch, scale) ->
            bsend c
              (Printf.sprintf
                 {|{"id": %d, "op": "profile", "app": "%s", "arch": "%s", "scale": %d}|}
                 i app arch scale))
          cold_keys;
        List.iter (fun _ -> ignore (bread_line c)) cold_keys;
        let cold_req_s =
          float_of_int (List.length cold_keys) /. (Unix.gettimeofday () -. t0)
        in
        (* pipelined hot throughput *)
        let n_pipe = 128 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to n_pipe - 1 do
          bsend c (req i (List.nth keys (i mod List.length keys)))
        done;
        for _ = 1 to n_pipe do
          ignore (bread_line c)
        done;
        let req_s = float_of_int n_pipe /. (Unix.gettimeofday () -. t0) in
        let cold50 = pct cold 50 and hot50 = pct !hot 50 and hot99 = pct !hot 99 in
        Printf.printf
          "  cold p50 %7.1f ms | hot p50 %6.3f ms  p99 %6.3f ms | hot %8.0f \
           req/s | cold pipelined %5.2f req/s\n%!"
          cold50 hot50 hot99 req_s cold_req_s;
        let open Analysis.Json in
        fleet_rows :=
          ( "1",
            Obj
              [ ("cold_ms_p50", Float cold50); ("hot_ms_p50", Float hot50);
                ("hot_ms_p99", Float hot99); ("hot_req_per_s", Float req_s);
                ("cold_pipelined_req_per_s", Float cold_req_s) ] )
          :: !fleet_rows)
  end

(* ----- staticfast: IR-only estimator vs the simulator -----

   Calibration of the static tier: for every registry workload, the
   estimator's memory-divergence degree, branch-divergence percentage
   and no-reuse fraction against the instrumented simulation's, plus
   the latency of each path.  The error columns are what the
   calibration test pins (with recorded tolerances). *)

let staticfast_rows : (string * Analysis.Json.t) list ref = ref []

let staticfast () =
  heading "Static fast path: estimate vs simulation (Kepler, 128B lines)";
  let arch = kepler16 () in
  (* First estimates pay the (memoized) frontend; warm it so the
     latency column measures the estimator itself, which is what the
     serve intake path runs on a warm daemon. *)
  List.iter
    (fun (w : Workloads.Common.t) -> ignore (Advisor.estimate ~arch w))
    Workloads.Registry.all;
  staticfast_rows := [];
  Printf.printf "%-10s %8s %9s %8s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s\n"
    "App" "est ms" "sim ms" "speedup" "deg^" "deg" "err" "br%^" "br%" "err"
    "nr^" "nr" "err";
  List.iter
    (fun (w : Workloads.Common.t) ->
      let t0 = Unix.gettimeofday () in
      let e = Advisor.estimate ~arch w in
      let est_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let t1 = Unix.gettimeofday () in
      let s = Advisor.profile ~arch w in
      let sim_ms = (Unix.gettimeofday () -. t1) *. 1000. in
      Hashtbl.replace sessions w.name s;
      let md = Advisor.mem_divergence ~line_size:128 s in
      let bd = Advisor.branch_divergence s in
      let rd = Advisor.reuse_distance s in
      let sim_deg = md.Analysis.Mem_divergence.degree in
      let sim_br = Analysis.Branch_divergence.percent bd in
      let sim_nr = Analysis.Reuse_distance.no_reuse_fraction rd in
      let module E = Passes.Estimate in
      let deg_err = Float.abs (e.E.degree -. sim_deg) in
      let br_err = Float.abs (e.E.branch_percent -. sim_br) in
      let nr_err = Float.abs (e.E.no_reuse_fraction -. sim_nr) in
      Printf.printf
        "%-10s %8.3f %9.1f %7.0fx | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f | \
         %6.2f %6.2f %6.2f\n%!"
        w.name est_ms sim_ms (sim_ms /. est_ms) e.E.degree sim_deg deg_err
        e.E.branch_percent sim_br br_err e.E.no_reuse_fraction sim_nr nr_err;
      let open Analysis.Json in
      staticfast_rows :=
        ( w.name,
          Obj
            [ ("estimate_ms", Float est_ms); ("simulate_ms", Float sim_ms);
              ("speedup", Float (sim_ms /. est_ms));
              ( "degree",
                Obj
                  [ ("estimated", Float e.E.degree); ("simulated", Float sim_deg);
                    ("abs_error", Float deg_err);
                    ( "confidence",
                      String (E.confidence_label e.E.degree_confidence) ) ] );
              ( "branch_percent",
                Obj
                  [ ("estimated", Float e.E.branch_percent);
                    ("simulated", Float sim_br); ("abs_error", Float br_err);
                    ( "confidence",
                      String (E.confidence_label e.E.branch_confidence) ) ] );
              ( "no_reuse_fraction",
                Obj
                  [ ("estimated", Float e.E.no_reuse_fraction);
                    ("simulated", Float sim_nr); ("abs_error", Float nr_err);
                    ( "confidence",
                      String (E.confidence_label e.E.reuse_confidence) ) ] ) ] )
        :: !staticfast_rows)
    Workloads.Registry.all

(* ----- tune: variant tournaments over the registry ----- *)

let tune_rows : (string * Analysis.Json.t) list ref = ref []

(* The standard sweep (CTA-width double/halve, half-bypassed warps,
   4x-unrolled loops) for every Table-2 app, through the same
   Tune.Evaluate engine the serve daemon's `evaluate` op runs. *)
let tune_bench () =
  heading "Tune: variant tournaments (bypass / block-size / unroll sweep)";
  let arch = kepler16 () in
  tune_rows := [];
  Printf.printf "%-10s %8s %-12s %8s %7s\n" "App" "variants" "best" "speedup"
    "secs";
  List.iter
    (fun (w : Workloads.Common.t) ->
      let t0 = Unix.gettimeofday () in
      let result = Tune.Sweep.run ~arch w in
      let secs = Unix.gettimeofday () -. t0 in
      let doc =
        match Obs.Jsonv.parse (Analysis.Json.to_string result) with
        | Ok v -> v
        | Error _ -> Obs.Jsonv.Null
      in
      let n_variants =
        match Obs.Jsonv.member "variants" doc with
        | Some (Obs.Jsonv.Arr vs) -> List.length vs
        | _ -> 0
      in
      let best_name, best_speedup =
        match Obs.Jsonv.member "ranking" doc with
        | Some (Obs.Jsonv.Arr (top :: _)) ->
          ( Option.value
              (Option.bind (Obs.Jsonv.member "name" top) Obs.Jsonv.to_string_opt)
              ~default:"?",
            Option.value
              (Option.bind
                 (Obs.Jsonv.member "speedup_vs_baseline" top)
                 Obs.Jsonv.to_float_opt)
              ~default:Float.nan )
        | _ -> ("?", Float.nan)
      in
      Printf.printf "%-10s %8d %-12s %7.3fx %7.2f\n%!" w.name n_variants
        best_name best_speedup secs;
      let open Analysis.Json in
      tune_rows :=
        ( w.name,
          Obj
            [ ("variants", Int n_variants); ("best", String best_name);
              ("best_speedup", Float best_speedup); ("seconds", Float secs) ] )
        :: !tune_rows)
    Workloads.Registry.all

(* ----- telemetry costs: snapshot, exposition render, percentile ----- *)

let telemetry_rows : (string * Analysis.Json.t) list ref = ref []

let telemetry () =
  section "Telemetry costs (registry snapshot, exposition)";
  (* a registry shaped like a busy daemon: per-op histograms + counters *)
  let ops = [ "ping"; "list"; "profile"; "profile_fast"; "check"; "bypass" ] in
  List.iter
    (fun op ->
      let h = Obs.Metrics.histogram (Printf.sprintf "bench.tele.op.%s.ns" op) in
      for i = 1 to 10_000 do
        Obs.Metrics.observe h (i * 997)
      done;
      Obs.Metrics.add
        (Obs.Metrics.counter (Printf.sprintf "bench.tele.%s.count" op))
        (op |> String.length))
    ops;
  let time_n n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6
  in
  let snap_us = time_n 200 Obs.Metrics.snapshot in
  let snap = Obs.Metrics.snapshot () in
  Printf.printf "registry snapshot (%d instruments): %8.1f us\n"
    (List.length snap) snap_us;
  let prom_us = time_n 100 (fun () -> Obs.Metrics.to_prometheus ~snap ()) in
  let prom_lines =
    List.length (String.split_on_char '\n' (Obs.Metrics.to_prometheus ~snap ()))
  in
  Printf.printf "prometheus render (%4d lines):  %8.1f us\n" prom_lines prom_us;
  let h =
    match List.assoc "bench.tele.op.profile.ns" snap with
    | Obs.Metrics.Histogram h -> h
    | _ -> assert false
  in
  let pct_us =
    time_n 10_000 (fun () -> Obs.Metrics.percentile h 0.99)
  in
  Printf.printf "p99 from log2 buckets:          %8.3f us\n" pct_us;
  telemetry_rows :=
    [ ("snapshot_us", Analysis.Json.Float snap_us);
      ("prometheus_us", Analysis.Json.Float prom_us);
      ("percentile_us", Analysis.Json.Float pct_us) ]

(* ----- bank-conflict model: exactness and fidelity cost ----- *)

let bankconflict_rows : (string * Analysis.Json.t) list ref = ref []

let bankconflict () =
  section "Shared-memory bank conflicts (model exactness + fidelity cost)";
  bankconflict_rows := [];
  let arch = kepler16 () in
  (* (a) exactness: the microbenchmark degrees are known in closed form
     (stride 1 -> conflict-free, stride 32 -> 32-way on every access) *)
  Printf.printf "  %-14s %9s %7s %8s %11s\n" "micro" "accesses" "degree"
    "replays" "wasted-cyc";
  let micro_rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        let session = Advisor.profile ~bankmodel:true ~arch w in
        let bc = Advisor.bank_conflict session in
        let { Analysis.Bank_conflict.shared_accesses; replays; wasted_cycles; _ }
            =
          bc
        in
        let degree = Analysis.Bank_conflict.max_degree bc in
        Printf.printf "  %-14s %9d %7d %8d %11d\n%!" name shared_accesses
          degree replays wasted_cycles;
        ( name,
          Analysis.Json.Obj
            [ ("shared_accesses", Analysis.Json.Int shared_accesses);
              ("max_degree", Analysis.Json.Int degree);
              ("replays", Analysis.Json.Int replays);
              ("wasted_cycles", Analysis.Json.Int wasted_cycles) ] ))
      Workloads.Registry.micro_names
  in
  (* (b) fidelity cost: simulator wall-clock with the bank model on vs
     off, on the smoke path of the shared-memory Table-2 apps.  The
     model adds only per-shared-access bank bookkeeping, so the budget
     is <10% (reported and baselined warn-only, never gated). *)
  let fidelity_apps = [ "backprop"; "nw" ] in
  let cost_rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        let time bankmodel =
          let t0 = Unix.gettimeofday () in
          let cycles, _ = Advisor.run_native ~bankmodel ~arch w in
          (cycles, Unix.gettimeofday () -. t0)
        in
        (* warm the compile/decode caches so neither side pays them *)
        ignore (time false);
        let cycles_off, off_s = time false in
        let cycles_on, on_s = time true in
        let overhead = (on_s -. off_s) /. off_s *. 100. in
        Printf.printf
          "  %-10s off %9d cyc %6.2fs   on %9d cyc %6.2fs   wall %+6.1f%%\n%!"
          name cycles_off off_s cycles_on on_s overhead;
        if overhead > 10. then
          Printf.printf "  WARN: %s bank-model fidelity cost %.1f%% > 10%%\n%!"
            name overhead;
        ( name,
          Analysis.Json.Obj
            [ ("cycles_off", Analysis.Json.Int cycles_off);
              ("cycles_on", Analysis.Json.Int cycles_on);
              ("wall_overhead_pct", Analysis.Json.Float overhead) ] ))
      fidelity_apps
  in
  bankconflict_rows :=
    [ ("micro", Analysis.Json.Obj micro_rows);
      ("fidelity", Analysis.Json.Obj cost_rows) ]

let all_sections =
  [ ("table1", table1); ("table2", table2); ("fig4", fig4); ("fig5", fig5);
    ("table3", table3); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("vertical", vertical);
    ("ablation", ablation); ("serve", serve_bench);
    ("servefleet", serve_fleet_bench); ("staticfast", staticfast);
    ("tune", tune_bench); ("telemetry", telemetry);
    ("bankconflict", bankconflict); ("bech", bechamel); ("smoke", smoke) ]

let () =
  (* `--json FILE` may appear anywhere among the section names *)
  let rec split_json acc = function
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | "--json" :: [] -> failwith "--json needs a file argument"
    | x :: rest -> split_json (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, names = split_json [] (List.tl (Array.to_list Sys.argv)) in
  (* `OBS_TRACE=file` turns on self-profiling for the whole run and
     writes a Chrome trace of the harness itself on exit *)
  let obs_trace_file = Sys.getenv_opt "OBS_TRACE" in
  if obs_trace_file <> None then Obs.Trace.enable ();
  (* `--smoke` is shorthand for the smoke section alone *)
  let names =
    List.map (function "--smoke" -> "smoke" | n -> n) names
  in
  let requested =
    if names = [] then
      (* [smoke] duplicates work the full suite already does; keep the
         default run to the paper's sections *)
      List.filter (fun n -> n <> "smoke") (List.map fst all_sections)
    else names
  in
  Printf.printf "CUDAAdvisor reproduction benchmarks\n%!";
  let timings = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        Obs.Trace.with_span ~cat:"bench" ("bench." ^ name) f;
        timings := (name, Unix.gettimeofday () -. t0) :: !timings
      | None ->
        Printf.eprintf "unknown section %s (available: %s)\n" name
          (String.concat ", " (List.map fst all_sections)))
    requested;
  (match obs_trace_file with
  | Some f ->
    Obs.Trace.export_chrome_to_file f;
    Printf.printf "\nwrote Chrome trace to %s\n%!" f
  | None -> ());
  match json_file with
  | None -> ()
  | Some file ->
    let open Analysis.Json in
    (* both cache blocks read the Obs registry now; the keys are kept
       for scripts that already consume them *)
    let hits, misses = Advisor.compile_cache_stats () in
    let dhits, dmisses = Ptx.Decode.cache_stats () in
    let metrics =
      Obj
        (List.map
           (fun (name, v) ->
             match v with
             | Obs.Metrics.Counter i -> (name, Int i)
             | Obs.Metrics.Gauge g -> (name, Float g)
             | Obs.Metrics.Histogram h ->
               ( name,
                 Obj
                   [ ("count", Int h.count); ("sum", Int h.sum);
                     ("max", Int h.max_value); ("mean", Float h.mean);
                     ( "buckets",
                       Obj
                         (List.map
                            (fun (b, c) -> (Obs.Metrics.bucket_label b, Int c))
                            h.filled) ) ] ))
           (Obs.Metrics.snapshot ()))
    in
    let doc =
      Obj
        [
          ("sections",
           Obj (List.rev_map (fun (n, s) -> (n, Float s)) !timings));
          ("bechamel_ns_per_run",
           Obj (List.map (fun (n, t) -> (n, Float t)) (List.sort compare !bech_rows)));
          ("serve_fleet", Obj (List.rev !fleet_rows));
          ("staticfast", Obj (List.rev !staticfast_rows));
          ("tune", Obj (List.rev !tune_rows));
          ("telemetry", Obj !telemetry_rows);
          ("bankconflict", Obj !bankconflict_rows);
          ("compile_cache", Obj [ ("hits", Int hits); ("misses", Int misses) ]);
          ("decode_cache", Obj [ ("hits", Int dhits); ("misses", Int dmisses) ]);
          ("metrics", metrics);
          ("pool_domains", Int (Domain.recommended_domain_count ()));
        ]
    in
    let oc = open_out file in
    output_string oc (to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n%!" file
