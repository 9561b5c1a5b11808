(* Request routing: one function per op, all reusing the Advisor front
   door and the `--json` report encoders, so a served response is
   byte-identical to the one-shot CLI's machine-readable output.

   Ops needing an application are validated *before* they are enqueued
   ([validate]), so a typo'd app name answers immediately instead of
   occupying a queue slot behind seconds-long simulations. *)

module Json = Analysis.Json

type outcome = (Json.t, string * string) result (* error = (code, message) *)

let known_ops =
  [ "ping"; "list"; "metrics"; "metrics_raw"; "sleep"; "compile"; "profile";
    "profile_fast"; "check"; "bypass"; "evaluate" ]

let needs_app op =
  List.mem op
    [ "compile"; "profile"; "profile_fast"; "check"; "bypass"; "evaluate" ]

(* Static-tier requests are answered by the IR-only estimator — no
   simulator launch, cheap enough for the intake domain.  [profile_fast]
   is sugar for [profile] with ["tier":"static"]. *)
let is_static (r : Protocol.request) =
  match r.op, r.tier with
  | "profile_fast", _ -> true
  | "profile", Some "static" -> true
  | _ -> false

(* The op name used for per-op latency histograms and SLO accounting:
   both spellings of a static-tier profile class as "profile_fast" (they
   share a latency profile and an answer cache), everything else as its
   own op. *)
let op_class (r : Protocol.request) = if is_static r then "profile_fast" else r.op

let resolve_app (r : Protocol.request) =
  match r.app with
  | None -> Error ("bad_request", Printf.sprintf "op %S needs an \"app\" field" r.op)
  | Some name -> (
    match Workloads.Registry.find_opt name with
    | Some w -> Ok w
    | None ->
      Error
        ( "unknown_app",
          Printf.sprintf "unknown application %S (op \"list\" enumerates them)"
            name ))

let resolve_arch (r : Protocol.request) =
  match Gpusim.Arch.of_name r.arch_name with
  | Some arch -> Ok arch
  | None ->
    Error
      ( "unknown_arch",
        Printf.sprintf "unknown architecture %S (expected one of %s)" r.arch_name
          (String.concat ", " Gpusim.Arch.known_names) )

(* The answer tiers a request may name.  [profile] accepts both
   ("exact" is the default); [profile_fast] is already the static tier,
   so naming "exact" on it contradicts the op; no other op is tiered. *)
let validate_tier (r : Protocol.request) : (unit, string * string) result =
  match r.op, r.tier with
  | _, None -> Ok ()
  | "profile", Some ("exact" | "static") -> Ok ()
  | "profile", Some other ->
    Error
      ( "bad_request",
        Printf.sprintf "field \"tier\" must be exact or static (got %S)" other )
  | "profile_fast", Some "static" -> Ok ()
  | "profile_fast", Some other ->
    Error
      ( "bad_request",
        Printf.sprintf "op \"profile_fast\" is the static tier (got tier %S)"
          other )
  | op, Some _ ->
    Error
      ("bad_request", Printf.sprintf "op %S does not take a \"tier\" field" op)

(* [bankmodel] charges simulated cycles, so it only means something on
   an exact-tier profile; an explicit [false] anywhere is a no-op. *)
let validate_bankmodel (r : Protocol.request) : (unit, string * string) result =
  match r.bankmodel with
  | None | Some false -> Ok ()
  | Some true ->
    if r.op = "profile" && not (is_static r) then Ok ()
    else
      Error
        ( "bad_request",
          "field \"bankmodel\" only applies to the exact profile tier" )

(* An evaluate batch resolved to the tournament engine's variant
   specs: names defaulted positionally ("v<index>") so every variant
   has a stable id, baseline defaulted to the first variant.  Shared
   by validation and dispatch so they cannot disagree. *)
let max_batch_variants = 64

let evaluate_plan (r : Protocol.request) :
    (Tune.Evaluate.spec list * string, string * string) result =
  let bad msg = Error ("bad_request", msg) in
  match r.variants with
  | None | Some [] ->
    bad "op \"evaluate\" needs a non-empty \"variants\" array"
  | Some vs when List.length vs > max_batch_variants ->
    bad
      (Printf.sprintf "too many variants (%d, max %d)" (List.length vs)
         max_batch_variants)
  | Some vs -> (
    let specs =
      List.mapi
        (fun i (v : Protocol.variant) ->
          { Tune.Evaluate.sp_name =
              Option.value v.Protocol.v_name ~default:(Printf.sprintf "v%d" i);
            sp_source = v.Protocol.v_source;
            sp_block_x = v.Protocol.v_block_x;
            sp_bypass_warps = v.Protocol.v_bypass_warps })
        vs
    in
    let bad_knob =
      List.find_map
        (fun (s : Tune.Evaluate.spec) ->
          match (s.sp_block_x, s.sp_bypass_warps) with
          | Some bx, _ when bx <= 0 ->
            Some
              (Printf.sprintf "variant %S: \"block_x\" must be positive"
                 s.sp_name)
          | _, Some bw when bw < 0 ->
            Some
              (Printf.sprintf "variant %S: \"bypass_warps\" must be >= 0"
                 s.sp_name)
          | _ -> None)
        specs
    in
    match bad_knob with
    | Some msg -> bad msg
    | None -> (
      let names = List.map (fun (s : Tune.Evaluate.spec) -> s.sp_name) specs in
      let dup =
        List.find_map
          (fun n ->
            if List.length (List.filter (String.equal n) names) > 1 then Some n
            else None)
          names
      in
      match dup with
      | Some n -> bad (Printf.sprintf "duplicate variant name %S" n)
      | None -> (
        let baseline = Option.value r.baseline ~default:(List.hd names) in
        if List.mem baseline names then Ok (specs, baseline)
        else
          bad
            (Printf.sprintf "baseline %S does not name a submitted variant"
               baseline))))

(* Cheap pre-enqueue validation: op known, tier sensible, app/arch
   resolvable.  The expensive work happens later on a worker domain. *)
let validate (r : Protocol.request) : (unit, string * string) result =
  if not (List.mem r.op known_ops) then
    Error
      ( "unknown_op",
        Printf.sprintf "unknown op %S (expected one of %s)" r.op
          (String.concat ", " known_ops) )
  else
    match validate_tier r with
    | Error _ as e -> e
    | Ok () ->
    match validate_bankmodel r with
    | Error _ as e -> e
    | Ok () -> (
      match resolve_arch r with
      | Error _ as e -> e
      | Ok _ -> (
        let app_ok =
          if needs_app r.op then
            match resolve_app r with Error e -> Error e | Ok _ -> Ok ()
          else Ok ()
        in
        match app_ok with
        | Error _ as e -> e
        | Ok () ->
          if r.op = "evaluate" then
            match evaluate_plan r with Error e -> Error e | Ok _ -> Ok ()
          else Ok ()))

(* ----- the ops ----- *)

let ping () =
  Ok
    (Json.Obj
       [ ("pong", Json.Bool true);
         ("uptime_ns", Json.Int (Obs.Clock.elapsed_ns ())) ])

let list_apps () =
  let names l = Json.List (List.map (fun (w : Workloads.Common.t) -> Json.String w.name) l) in
  Ok
    (Json.Obj
       [ ("apps", names Workloads.Registry.all);
         ("seeded", names Workloads.Registry.seeded);
         ("stress", names Workloads.Registry.stress);
         ("archs", Json.List (List.map (fun a -> Json.String a) Gpusim.Arch.known_names)) ])

let metrics () = Ok (Metricsenc.snapshot_json (Obs.Metrics.snapshot ()))
let metrics_raw () = Ok (Metricsenc.raw_json (Obs.Metrics.snapshot ()))

(* Diagnostic op: busy-wait politely for [ms], polling the same
   cancellation check the simulator does — exercising queueing,
   backpressure and timeouts without burning simulation cycles. *)
let sleep (r : Protocol.request) =
  match r.ms with
  | None -> Error ("bad_request", "op \"sleep\" needs an integer \"ms\" field")
  | Some ms ->
    let until = Obs.Clock.now_ns () + (max 0 ms * 1_000_000) in
    let rec wait () =
      Gpusim.Gpu.poll_cancel ();
      let left_ns = until - Obs.Clock.now_ns () in
      if left_ns > 0 then begin
        Unix.sleepf (Float.min 0.005 (float_of_int left_ns /. 1e9));
        wait ()
      end
    in
    wait ();
    Ok (Json.Obj [ ("slept_ms", Json.Int ms) ])

let compile (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* instrument =
    match Option.value r.instrument ~default:"none" with
    | "none" -> Ok None
    | "profile" -> Ok (Some Advisor.default_options)
    | "check" -> Ok (Some Advisor.check_options)
    | "all" -> Ok (Some Passes.Instrument.all)
    | other ->
      Error
        ( "bad_request",
          Printf.sprintf
            "field \"instrument\" must be none, profile, check or all (got %S)"
            other )
  in
  let compiled =
    Advisor.compile_source ?instrument ~file:w.Workloads.Common.source_file
      w.Workloads.Common.source
  in
  let kernels =
    List.filter_map
      (fun (name, f) -> if f.Ptx.Isa.is_kernel then Some (Json.String name) else None)
      compiled.Advisor.prog.Ptx.Isa.funcs
  in
  let hits, misses = Advisor.compile_cache_stats () in
  Ok
    (Json.Obj
       [ ("app", Json.String w.Workloads.Common.name);
         ("functions", Json.Int (List.length compiled.Advisor.prog.Ptx.Isa.funcs));
         ("kernels", Json.List kernels);
         ("instrumented", Json.Bool (compiled.Advisor.manifest <> None));
         ( "compile_cache",
           Json.Obj [ ("hits", Json.Int hits); ("misses", Json.Int misses) ] ) ])

let profile (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* arch = resolve_arch r in
  let bankmodel = Option.value r.bankmodel ~default:false in
  let session = Advisor.profile ~bankmodel ~arch ?scale:r.scale w in
  (* The bank-conflict section rides only on bank-model requests, so
     default-profile response bytes are unchanged by the feature. *)
  let bank_conflict =
    if bankmodel then Some (Advisor.bank_conflict session) else None
  in
  Ok
    (Analysis.Report.of_profile ?bank_conflict ~app:w.Workloads.Common.name
       ~arch_name:arch.Gpusim.Arch.name ~line_size:arch.Gpusim.Arch.line_size
       session.Advisor.profiler)

(* The static tier: an IR-only estimate with zero simulator launches.
   Serialization-stable like every other op, so it caches the same
   way. *)
let profile_static (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* arch = resolve_arch r in
  Ok (Advisor.estimate_json ~arch w)

let check (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* arch = resolve_arch r in
  let report = Advisor.check ~arch ?scale:r.scale w in
  Ok (Advisor.check_report_json report)

let bypass (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* arch = resolve_arch r in
  (* default to no intra-request fan-out: the whole sweep then runs on
     the worker's own domain, where the request deadline is polled *)
  let domains = Option.value r.domains ~default:1 in
  let b = Advisor.bypass_study ?scale:r.scale ~domains ~arch w in
  Ok
    (Analysis.Report.bypass_json ~app:b.Advisor.app ~arch_name:b.Advisor.arch_name
       ~warps_per_cta:b.Advisor.warps_per_cta
       ~baseline_cycles:b.Advisor.baseline_cycles ~sweep:b.Advisor.sweep
       ~oracle_warps:b.Advisor.oracle_warps ~oracle_cycles:b.Advisor.oracle_cycles
       ~predicted_warps:b.Advisor.predicted_warps
       ~predicted_cycles:b.Advisor.predicted_cycles)

(* The tournament op: evaluate an N-variant batch through the tuning
   engine.  The batch itself is never cached (its bytes depend on the
   variant mix), but each variant's result is, under its own
   content-addressed sub-key — [cache] is the server's result cache,
   threaded down so resubmitted variants cost zero simulator
   launches.  Stress on the variants list, not this process: like
   [bypass], the batch defaults to the worker's own domain so the
   request deadline keeps being polled between variants. *)
let evaluate ?cache (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* w = resolve_app r in
  let* arch = resolve_arch r in
  let* specs, baseline = evaluate_plan r in
  let domains = Option.value r.domains ~default:1 in
  let lookup = Option.map (fun c key -> Rescache.find c key) cache in
  let store = Option.map (fun c key raw -> Rescache.store c key raw) cache in
  Ok
    (Tune.Evaluate.run_batch ~domains ?lookup ?store ?scale:r.scale ~baseline
       ~arch w specs)

(* [cache] is the server's result cache, used only by ops that manage
   sub-entries themselves (evaluate); whole-result caching of the other
   ops stays in the server's intake/completion path. *)
let dispatch ?cache (r : Protocol.request) : outcome =
  if is_static r then profile_static r
  else
    match r.op with
    | "ping" -> ping ()
    | "list" -> list_apps ()
    | "metrics" -> metrics ()
    | "metrics_raw" -> metrics_raw ()
    | "sleep" -> sleep r
    | "compile" -> compile r
    | "profile" -> profile r
    | "check" -> check r
    | "bypass" -> bypass r
    | "evaluate" -> evaluate ?cache r
    | op -> Error ("unknown_op", Printf.sprintf "unknown op %S" op)
