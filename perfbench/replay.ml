(* The traced run: replay a workload's inputs in-process through the
   layers' public functions, with a span around every call into a layer
   (taken here, in the benchmark, not inside the program), and collect
   the simulator's exact counts.

   Each replay produces the same result bytes the daemon serves for the
   same request; the caller compares them. *)

module Json = Analysis.Json
module Isa = Ptx.Isa

(* ----- exact simulated counts ----- *)

type counts = {
  mutable warp_insts : int;
  mutable thread_insts : int;
  mutable launches : int;
  mutable cycles : int;
  mutable load_txns : int;
  mutable store_txns : int;
  mutable l1_probes : int;
  mutable l1_hits : int;
  mutable l2_probes : int;
  mutable l2_hits : int;
  mutable mshr_stalls : int;
  mutable divergent_branches : int;
  mutable hook_calls : int;
  mutable mem_events : int;
}

let zero () =
  { warp_insts = 0; thread_insts = 0; launches = 0; cycles = 0; load_txns = 0;
    store_txns = 0; l1_probes = 0; l1_hits = 0; l2_probes = 0; l2_hits = 0;
    mshr_stalls = 0; divergent_branches = 0; hook_calls = 0; mem_events = 0 }

let add_launch c (r : Gpusim.Gpu.result) =
  let s = r.Gpusim.Gpu.stats in
  c.warp_insts <- c.warp_insts + s.Gpusim.Stats.warp_insts;
  c.thread_insts <- c.thread_insts + s.Gpusim.Stats.thread_insts;
  c.launches <- c.launches + 1;
  c.cycles <- c.cycles + r.Gpusim.Gpu.cycles;
  c.load_txns <- c.load_txns + s.Gpusim.Stats.load_transactions;
  c.store_txns <- c.store_txns + s.Gpusim.Stats.store_transactions;
  c.l1_probes <- c.l1_probes + r.Gpusim.Gpu.l1_stats.Gpusim.Cache.reads;
  c.l1_hits <- c.l1_hits + r.Gpusim.Gpu.l1_stats.Gpusim.Cache.read_hits;
  c.l2_probes <- c.l2_probes + r.Gpusim.Gpu.l2_stats.Gpusim.Cache.reads;
  c.l2_hits <- c.l2_hits + r.Gpusim.Gpu.l2_stats.Gpusim.Cache.read_hits;
  c.mshr_stalls <- c.mshr_stalls + r.Gpusim.Gpu.mshr_stalls;
  c.divergent_branches <- c.divergent_branches + s.Gpusim.Stats.divergent_branches;
  c.hook_calls <- c.hook_calls + s.Gpusim.Stats.hook_calls

let merge_into dst src =
  dst.warp_insts <- dst.warp_insts + src.warp_insts;
  dst.thread_insts <- dst.thread_insts + src.thread_insts;
  dst.launches <- dst.launches + src.launches;
  dst.cycles <- dst.cycles + src.cycles;
  dst.load_txns <- dst.load_txns + src.load_txns;
  dst.store_txns <- dst.store_txns + src.store_txns;
  dst.l1_probes <- dst.l1_probes + src.l1_probes;
  dst.l1_hits <- dst.l1_hits + src.l1_hits;
  dst.l2_probes <- dst.l2_probes + src.l2_probes;
  dst.l2_hits <- dst.l2_hits + src.l2_hits;
  dst.mshr_stalls <- dst.mshr_stalls + src.mshr_stalls;
  dst.divergent_branches <- dst.divergent_branches + src.divergent_branches;
  dst.hook_calls <- dst.hook_calls + src.hook_calls;
  dst.mem_events <- dst.mem_events + src.mem_events

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The counts as (metric name, value) pairs, in print order; the
   ratios come with their probe counts. *)
let count_metrics c =
  [ ("gpusim.warp_insts", float_of_int c.warp_insts);
    ("gpusim.thread_insts", float_of_int c.thread_insts);
    ("gpusim.launches", float_of_int c.launches);
    ("gpusim.cycles", float_of_int c.cycles);
    ("gpusim.ipc", ratio c.warp_insts c.cycles);
    ("gpusim.load_txns", float_of_int c.load_txns);
    ("gpusim.store_txns", float_of_int c.store_txns);
    ("gpusim.l1_hit_ratio", ratio c.l1_hits c.l1_probes);
    ("gpusim.l1_probes", float_of_int c.l1_probes);
    ("gpusim.l2_hit_ratio", ratio c.l2_hits c.l2_probes);
    ("gpusim.l2_probes", float_of_int c.l2_probes);
    ("gpusim.mshr_stalls", float_of_int c.mshr_stalls);
    ("gpusim.divergent_branches", float_of_int c.divergent_branches);
    ("gpusim.hook_calls", float_of_int c.hook_calls);
    ("profiler.mem_events", float_of_int c.mem_events) ]

let counts_line c =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) (count_metrics c))

(* ----- the replay state ----- *)

type t = {
  sp : Spans.t;
  total : counts;
  per_key : (string, counts) Hashtbl.t; (* "<app>/<arch>" -> counts *)
  mutable hooks : int; (* hook instructions inserted *)
  mutable insts : int; (* PTX instructions generated *)
  mutable json_bytes : int;
  (* simulated warp instructions and sim time, native vs profiled, per
     app: the "native is slower than profiled" question *)
  sim : (string * string, int * int) Hashtbl.t; (* (app, kind) -> (winst, ns) *)
  cache : Serve.Rescache.t;
  mutable finds : int;
  mutable find_hits : int;
}

let create sp =
  { sp; total = zero (); per_key = Hashtbl.create 16; hooks = 0; insts = 0; json_bytes = 0;
    sim = Hashtbl.create 16; cache = Serve.Rescache.create Serve.Rescache.default_config;
    finds = 0; find_hits = 0 }

let span t name f = Spans.with_span t.sp name f

let key_counts t key =
  match Hashtbl.find_opt t.per_key key with
  | Some c -> c
  | None ->
    let c = zero () in
    Hashtbl.replace t.per_key key c;
    c

(* ----- layer by layer ----- *)

(* Decode ahead of the first launch, as [Ptx.Decode.of_prog] would. *)
let predecode t (prog : Isa.prog) =
  prog.Isa.decoded <- Some (span t "ptx.decode" (fun () -> Ptx.Decode.decode prog))

(* MiniCUDA -> Bitc -> (instrumented) -> PTX -> decoded, one span per
   layer.  Returns the pristine-or-instrumented module, the manifest
   and the program. *)
let compile t ?options ?(decode = true) ~file src =
  let modul = span t "minicuda.compile" (fun () -> Minicuda.Frontend.compile ~file src) in
  let manifest =
    Option.map
      (fun options ->
        span t "passes.instrument" (fun () ->
            (Passes.Instrument.run ~options modul).Passes.Instrument.manifest))
      options
  in
  let prog = span t "ptx.codegen" (fun () -> Ptx.Codegen.gen_module modul) in
  List.iter
    (fun (_, (f : Isa.func)) ->
      t.insts <- t.insts + Array.length f.Isa.body;
      Array.iter (function Isa.Hook _ -> t.hooks <- t.hooks + 1 | _ -> ()) f.Isa.body)
    prog.Isa.funcs;
  if decode then predecode t prog;
  (modul, manifest, prog)

(* Run the workload's host driver on a fresh host over [prog]; the
   launches count even when one traps. *)
let simulate t ~kind ~key ?profiler ?block_x ~arch (w : Workloads.Common.t) prog =
  let host = Hostrt.Host.create ?profiler ?block_x_override:block_x ~arch ~prog () in
  let c = zero () in
  let t0 = Spans.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let ns = Spans.now_ns () - t0 in
      List.iter (fun (_, r) -> add_launch c r) (Hostrt.Host.launches host);
      merge_into (key_counts t key) c;
      merge_into t.total c;
      let app = w.Workloads.Common.name in
      let w0, n0 = Option.value (Hashtbl.find_opt t.sim (app, kind)) ~default:(0, 0) in
      Hashtbl.replace t.sim (app, kind) (w0 + c.warp_insts, n0 + ns))
    (fun () ->
      span t ("gpusim." ^ kind) (fun () ->
          w.Workloads.Common.run host ~scale:w.Workloads.Common.default_scale));
  host

let count_mem_events t ~key profiler =
  let n =
    List.fold_left
      (fun acc i -> acc + List.length (Profiler.Profile.mem_events i))
      0 (Profiler.Profile.instances profiler)
  in
  (key_counts t key).mem_events <- (key_counts t key).mem_events + n;
  t.total.mem_events <- t.total.mem_events + n

let encode t json =
  let s = span t "analysis.json_encode" (fun () -> Json.to_string json) in
  t.json_bytes <- t.json_bytes + String.length s;
  s

let arch_of name =
  match Gpusim.Arch.of_name name with Some a -> a | None -> failwith ("unknown arch " ^ name)

(* ----- the serve layer ----- *)

let parse t line =
  match span t "serve.parse" (fun () -> Serve.Protocol.parse_request line) with
  | Ok r -> r
  | Error (_, _, msg) -> failwith ("replayed request does not parse: " ^ msg)

let validate t req =
  match span t "serve.validate" (fun () -> Serve.Router.validate req) with
  | Ok () -> ()
  | Error (_, msg) -> failwith ("replayed request is invalid: " ^ msg)

let cache_key t req = span t "serve.cachekey" (fun () -> Serve.Cachekey.of_request req)

let find t key =
  let r = span t "serve.rescache_find" (fun () -> Serve.Rescache.find t.cache key) in
  t.finds <- t.finds + 1;
  if r <> None then t.find_hits <- t.find_hits + 1;
  r

let store t key raw = span t "serve.rescache_store" (fun () -> Serve.Rescache.store t.cache key raw)

(* ----- one exact profile ----- *)

(* The exact tier's pipeline for one (app, arch).  The three analyses
   are also timed on their own; the report then runs them again inside,
   as the served path does. *)
let profile_exact t (w : Workloads.Common.t) arch =
  let key = w.Workloads.Common.name ^ "/" ^ arch.Gpusim.Arch.short_name in
  let _, manifest, prog =
    compile t ~options:Advisor.default_options ~file:w.Workloads.Common.source_file
      w.Workloads.Common.source
  in
  let profiler = Profiler.Profile.create ~manifest:(Option.get manifest) () in
  ignore (simulate t ~kind:"profiled" ~key ~profiler ~arch w prog);
  count_mem_events t ~key profiler;
  let instances = Profiler.Profile.instances profiler in
  let line_size = arch.Gpusim.Arch.line_size in
  span t "analysis.reuse_distance" (fun () ->
      ignore (Analysis.Reuse_distance.merge (List.map Analysis.Reuse_distance.of_instance instances)));
  span t "analysis.mem_divergence" (fun () ->
      ignore
        (Analysis.Mem_divergence.merge
           (List.map (Analysis.Mem_divergence.of_instance ~line_size) instances)));
  span t "analysis.branch_divergence" (fun () ->
      ignore (Analysis.Branch_divergence.of_instances instances));
  let report =
    span t "analysis.report" (fun () ->
        Analysis.Report.of_profile ~app:w.Workloads.Common.name ~arch_name:arch.Gpusim.Arch.name
          ~line_size profiler)
  in
  encode t report

(* The static tier: compile uninstrumented, estimate, encode. *)
let profile_static t (w : Workloads.Common.t) arch =
  let modul, _, _ =
    compile t ~decode:false ~file:w.Workloads.Common.source_file w.Workloads.Common.source
  in
  let est =
    span t "passes.estimate" (fun () ->
        Passes.Estimate.run ~block:w.Workloads.Common.block_dims
          ~banks:arch.Gpusim.Arch.shared_banks ~bank_width:arch.Gpusim.Arch.shared_bank_width
          ~line_size:arch.Gpusim.Arch.line_size modul)
  in
  encode t
    (Analysis.Report.estimate_json ~app:w.Workloads.Common.name ~arch_name:arch.Gpusim.Arch.name est)

(* A served profile request end to end: parse, validate, then (with the
   cache on) key and probe; a miss computes and stores.  Returns the
   result bytes. *)
let profile_request t ~cached line =
  let req = parse t line in
  validate t req;
  let w = Workloads.Registry.find (Option.get req.Serve.Protocol.app) in
  let arch = arch_of req.Serve.Protocol.arch_name in
  let compute () =
    if Serve.Router.is_static req then profile_static t w arch else profile_exact t w arch
  in
  if not cached then compute ()
  else
    match cache_key t req with
    | None -> compute ()
    | Some key -> (
      match find t key with
      | Some raw -> raw
      | None ->
        let raw = compute () in
        store t key raw;
        raw)

(* ----- one evaluate variant ----- *)

(* The per-variant pipeline of {!Tune.Evaluate}: a native run with the
   knobs applied, then one run under memory + control-flow + sharing
   hooks feeding divergence, branch statistics and the race detector,
   plus the static check of the pristine module. *)
let eval_variant t ~arch (w : Workloads.Common.t) (spec : Tune.Evaluate.spec) =
  let module E = Tune.Evaluate in
  let src = E.resolved_source w spec in
  let wv = { w with Workloads.Common.source = src } in
  let key = w.Workloads.Common.name ^ "/" ^ arch.Gpusim.Arch.short_name in
  let block_x = spec.E.sp_block_x in
  match compile t ~file:w.Workloads.Common.source_file src with
  | exception Minicuda.Frontend.Error e ->
    E.failed ~status:"compile_failed" (Minicuda.Frontend.error_to_string e)
  | exception e -> E.failed ~status:"compile_failed" (Printexc.to_string e)
  | pristine, _, prog -> (
    match
      let prog =
        match spec.E.sp_bypass_warps with
        | None -> prog
        | Some n ->
          let p = Advisor.rewrite_all_kernels prog ~warps_to_cache:n in
          predecode t p;
          p
      in
      let host = simulate t ~kind:"native" ~key ?block_x ~arch wv prog in
      let l1 =
        List.fold_left
          (fun acc (_, (r : Gpusim.Gpu.result)) -> Gpusim.Cache.add_stats acc r.Gpusim.Gpu.l1_stats)
          (Gpusim.Cache.empty_stats ()) (Hostrt.Host.launches host)
      in
      let _, manifest, iprog = compile t ~options:E.eval_options ~file:w.Workloads.Common.source_file src in
      let profiler = Profiler.Profile.create ~manifest:(Option.get manifest) () in
      ignore (simulate t ~kind:"profiled" ~key ~profiler ?block_x ~arch wv iprog);
      count_mem_events t ~key profiler;
      let instances = Profiler.Profile.instances profiler in
      let md =
        span t "analysis.mem_divergence" (fun () ->
            Analysis.Mem_divergence.merge
              (List.map
                 (Analysis.Mem_divergence.of_instance ~line_size:arch.Gpusim.Arch.line_size)
                 instances))
      in
      let bd =
        span t "analysis.branch_divergence" (fun () ->
            Analysis.Branch_divergence.of_instances instances)
      in
      let static = span t "passes.check_static" (fun () -> Passes.Check_static.run pristine) in
      let races = span t "analysis.race" (fun () -> Analysis.Race.of_profile profiler) in
      {
        E.o_status = "ok";
        o_error = None;
        o_compiled = true;
        o_cycles = Some (Hostrt.Host.total_kernel_cycles host);
        o_l1_hit_rate = Some (Gpusim.Cache.hit_rate l1);
        o_divergence = Some md.Analysis.Mem_divergence.degree;
        o_branch_pct = Some (Analysis.Branch_divergence.percent bd);
        o_check_errors = Some (List.length static + List.length races.Analysis.Race.races);
      }
    with
    | outcome -> outcome
    | exception Gpusim.Gpu.Launch_error msg ->
      E.failed ~status:"run_failed" ~compiled:true ("launch aborted: " ^ msg)
    | exception e -> E.failed ~status:"run_failed" ~compiled:true (Printexc.to_string e))

(* A served evaluate batch: parse, validate, then the tournament engine
   with this replay plugged in as its per-variant cache, so every
   variant is computed layer by layer here (a probe that misses, then
   a store) and the engine only ranks and assembles.  Returns the
   result bytes. *)
let evaluate_request t line =
  let module E = Tune.Evaluate in
  let req = parse t line in
  validate t req;
  ignore (cache_key t req);
  let w = Workloads.Registry.find (Option.get req.Serve.Protocol.app) in
  let arch = arch_of req.Serve.Protocol.arch_name in
  let specs, baseline =
    match Serve.Router.evaluate_plan req with
    | Ok p -> p
    | Error (_, msg) -> failwith msg
  in
  let scale = w.Workloads.Common.default_scale in
  let by_key = List.map (fun s -> (E.variant_key ~w ~arch ~scale s, s)) specs in
  let lookup k =
    match find t k with
    | Some raw -> Some raw
    | None ->
      let spec = List.assoc k by_key in
      let raw = Json.to_string (E.outcome_json ~w spec (eval_variant t ~arch w spec)) in
      store t k raw;
      Some raw
  in
  let batch = span t "tune.batch" (fun () -> E.run_batch ~lookup ~baseline ~arch w specs) in
  encode t batch

(* Per-app (native, profiled) nanoseconds per simulated warp
   instruction, with the instruction counts behind them. *)
let sim_split t =
  let apps = List.sort_uniq compare (Hashtbl.fold (fun (app, _) _ acc -> app :: acc) t.sim []) in
  List.map
    (fun app ->
      let get kind = Option.value (Hashtbl.find_opt t.sim (app, kind)) ~default:(0, 0) in
      (app, get "native", get "profiled"))
    apps
