(* cudaadvisor — command-line front end.

   Mirrors the artifact workflow of the paper (Appendix A): build an
   instrumented binary of a benchmark, run it under the profiler, and
   print the analyses (RD_mode / MD_mode / BD_mode directories of the
   original artifact become the `--analysis` flag here). *)

open Cmdliner

let arch_conv =
  let parse s =
    match Gpusim.Arch.of_name s with
    | Some arch -> Ok arch
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown architecture %s (expected one of %s)" s
             (String.concat ", " Gpusim.Arch.known_names)))
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt a.Gpusim.Arch.short_name)

let arch_arg =
  Arg.(
    value
    & opt arch_conv (Gpusim.Arch.kepler_k40c ~l1_kb:16 ())
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:"Target architecture: kepler, kepler-32k, kepler-48k or pascal.")

let scale_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "scale" ] ~docv:"N" ~doc:"Input scale factor (default: per-app).")

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Benchmark name (see `cudaadvisor list`).")

let find_app name =
  match Workloads.Registry.find_opt name with
  | Some w -> `Ok w
  | None ->
    `Error
      (false, Printf.sprintf "unknown application %s (try `cudaadvisor list`)" name)

(* ----- observability flags (shared by every subcommand) ----- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Enable self-profiling and write a Chrome trace-event JSON file to \
              $(docv) on exit (load it in chrome://tracing or ui.perfetto.dev).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Dump the self-profiling metrics registry on exit.")

let log_arg =
  let level_conv =
    Arg.enum
      [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info); ("warn", Obs.Log.Warn);
        ("error", Obs.Log.Error); ("quiet", Obs.Log.Quiet) ]
  in
  Arg.(
    value
    & opt (some level_conv) None
    & info [ "log" ] ~docv:"LEVEL"
        ~doc:"Log level: debug, info, warn, error or quiet (default: \
              $(b,OBS_LOG) environment variable, else warn).")

let max_warp_instrs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-warp-instrs" ] ~docv:"N"
        ~doc:"Per-warp executed-instruction limit before a launch is aborted as \
              runaway (default: $(b,CUDAADVISOR_MAX_WARP_INSTRS) environment \
              variable, else the built-in limit).")

(* Applies the flags as a side effect of term evaluation (so tracing is
   on before the command body runs) and hands the command a finalizer
   to run once its work is done. *)
let obs_term =
  let make trace_file metrics log_level max_warp =
    (match log_level with Some l -> Obs.Log.set_level l | None -> ());
    (match max_warp with Some n -> Gpusim.Gpu.set_max_warp_insts n | None -> ());
    if trace_file <> None then Obs.Trace.enable ();
    fun () ->
      (match trace_file with
      | Some f ->
        Obs.Trace.export_chrome_to_file f;
        Printf.eprintf "wrote Chrome trace to %s\n%!" f
      | None -> ());
      if metrics then print_string (Obs.Metrics.to_text ())
  in
  Term.(const make $ trace_arg $ metrics_flag $ log_arg $ max_warp_instrs_arg)

(* ----- list ----- *)

let list_cmd =
  let run finish =
    List.iter
      (fun (w : Workloads.Common.t) ->
        Printf.printf "%-10s %-40s (%s)\n" w.name w.description w.input_desc)
      Workloads.Registry.all;
    Printf.printf "\nSeeded-bug variants (for `cudaadvisor check`):\n";
    List.iter
      (fun (w : Workloads.Common.t) ->
        Printf.printf "%-22s %-40s (%s)\n" w.name w.description w.input_desc)
      Workloads.Registry.seeded;
    finish ()
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmark applications.")
    Term.(const run $ obs_term)

(* ----- profile ----- *)

let profile_run finish app arch scale analysis json tier bankmodel =
  match find_app app with
  | `Error _ as e -> e
  | `Ok _ when tier = `Static && bankmodel ->
    `Error (false, "--bankmodel needs the exact tier (it charges simulated cycles)")
  | `Ok w when tier = `Static && json ->
    print_endline
      (Analysis.Report.to_string (Advisor.estimate_json ~arch w));
    finish ();
    `Ok ()
  | `Ok w when tier = `Static ->
    let e = Advisor.estimate ~arch w in
    let module E = Passes.Estimate in
    Printf.printf "== Static estimate (no simulation; line size %d B) ==\n"
      e.E.line_size;
    Printf.printf "memory divergence: %.2f lines/access [%s]\n" e.E.degree
      (E.confidence_label e.E.degree_confidence);
    Printf.printf "branch divergence: %.2f%% [%s]\n" e.E.branch_percent
      (E.confidence_label e.E.branch_confidence);
    Printf.printf "no-reuse fraction: %.2f [%s]\n" e.E.no_reuse_fraction
      (E.confidence_label e.E.reuse_confidence);
    Printf.printf "global-memory sites:\n";
    List.iter
      (fun (s : E.site) ->
        Printf.printf "  %-24s %-6s %-8s %6.2f lines [%s]\n"
          (Bitc.Loc.to_string s.E.site_loc)
          s.E.site_kind s.E.pattern s.E.lines
          (E.confidence_label s.E.lines_confidence))
      e.E.sites;
    if e.E.shared_sites <> [] then begin
      Printf.printf
        "shared-memory sites (%d banks x %d B, predicted worst degree %d):\n"
        e.E.banks e.E.bank_width e.E.bank_degree;
      List.iter
        (fun (s : E.shared_site) ->
          Printf.printf "  %-24s %-6s %-8s degree %2d%s [%s]\n"
            (Bitc.Loc.to_string s.E.sh_loc)
            s.E.sh_kind s.E.sh_pattern s.E.sh_degree
            (if s.E.sh_broadcast then " (broadcast)" else "")
            (E.confidence_label s.E.sh_confidence))
        e.E.shared_sites
    end;
    finish ();
    `Ok ()
  | `Ok w when json ->
    let session = Advisor.profile ~bankmodel ~arch ?scale w in
    let bank_conflict =
      if bankmodel then Some (Advisor.bank_conflict session) else None
    in
    print_endline
      (Analysis.Report.to_string
         (Analysis.Report.of_profile ?bank_conflict ~app:w.name
            ~arch_name:arch.Gpusim.Arch.name
            ~line_size:arch.Gpusim.Arch.line_size session.profiler));
    finish ();
    `Ok ()
  | `Ok w ->
    let session = Advisor.profile ~bankmodel ~arch ?scale w in
    let line_size = arch.Gpusim.Arch.line_size in
    if List.mem `Rd analysis then begin
      Printf.printf "== Reuse distance (per CTA, element-based) ==\n";
      Format.printf "%a@." Analysis.Reuse_distance.pp (Advisor.reuse_distance session)
    end;
    if List.mem `Md analysis then begin
      Printf.printf "== Memory divergence (line size %d B) ==\n" line_size;
      Format.printf "%a@." Analysis.Mem_divergence.pp
        (Advisor.mem_divergence session)
    end;
    if List.mem `Bd analysis then begin
      let bd = Advisor.branch_divergence session in
      Printf.printf "== Branch divergence ==\n%d divergent of %d blocks (%.2f%%)\n"
        bd.divergent_blocks bd.total_blocks
        (Analysis.Branch_divergence.percent bd)
    end;
    if bankmodel then begin
      Printf.printf "== Shared-memory bank conflicts ==\n";
      Format.printf "%a@." Analysis.Bank_conflict.pp (Advisor.bank_conflict session)
    end;
    Printf.printf "== Kernel instances (merged by calling context) ==\n";
    List.iter
      (fun (ctx, s) ->
        Format.printf "%s@   cycles: %a@." ctx Analysis.Statistics.pp_summary s)
      (Analysis.Statistics.by_context (Advisor.instances session)
         ~metric:Analysis.Statistics.cycles);
    finish ();
    `Ok ()

let analysis_arg =
  let kind = Arg.enum [ ("rd", `Rd); ("md", `Md); ("bd", `Bd) ] in
  Arg.(
    value
    & opt_all kind [ `Rd; `Md; `Bd ]
    & info [ "analysis" ] ~docv:"KIND"
        ~doc:"Analyses to report: rd (reuse distance), md (memory divergence), \
              bd (branch divergence).  Repeatable.")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let tier_arg =
  let tier = Arg.enum [ ("exact", `Exact); ("static", `Static) ] in
  Arg.(
    value
    & opt tier `Exact
    & info [ "tier" ] ~docv:"TIER"
        ~doc:"Answer tier: exact (instrument and simulate, the default) or \
              static (IR-only estimate, no simulator launch).")

let bankmodel_flag =
  Arg.(
    value & flag
    & info [ "bankmodel" ]
        ~doc:"Charge shared-memory bank-conflict replays as issue cycles and \
              report the per-line conflict breakdown.  Off by default so \
              cycle totals match earlier releases.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Instrument an application, run it under the profiler, print analyses.")
    Term.(
      ret
        (const profile_run $ obs_term $ app_arg $ arch_arg $ scale_arg
        $ analysis_arg $ json_flag $ tier_arg $ bankmodel_flag))

(* ----- report (Figures 8/9) ----- *)

let report_run finish app arch scale =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    let session = Advisor.profile ~arch ?scale w in
    let line_size = arch.Gpusim.Arch.line_size in
    let busiest =
      List.fold_left
        (fun acc (i : Profiler.Profile.instance) ->
          match acc with
          | Some (b : Profiler.Profile.instance) when b.mem_count >= i.mem_count -> acc
          | _ -> Some i)
        None (Advisor.instances session)
    in
    (match busiest with
    | None -> Printf.printf "no kernel instances recorded\n"
    | Some instance ->
      print_string
        (Analysis.Views.divergent_sites_report session.profiler instance ~line_size
           ~top:3);
      print_newline ();
      print_string
        (Analysis.Views.data_centric_report session.profiler instance ~line_size
           ~top:3));
    finish ();
    `Ok ()

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Code- and data-centric debugging views of the most divergent accesses.")
    Term.(ret (const report_run $ obs_term $ app_arg $ arch_arg $ scale_arg))

(* ----- check ----- *)

let pp_device_path path =
  String.concat " <- "
    (List.map
       (fun (fn, loc) ->
         if Bitc.Loc.is_none loc then fn
         else Printf.sprintf "%s (%s)" fn (Bitc.Loc.to_string loc))
       path)

let check_run finish app arch scale json =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    match Advisor.check ~arch ?scale w with
    | exception Gpusim.Gpu.Launch_error msg ->
      `Error (false, Printf.sprintf "launch aborted: %s" msg)
    | r ->
    let errors = Advisor.check_error_count r in
    if json then
      print_endline (Analysis.Json.to_string (Advisor.check_report_json r))
    else begin
      List.iter
        (fun (f : Passes.Check_static.finding) ->
          Printf.printf "error: [%s] %s in %s: %s\n" f.rule
            (Bitc.Loc.to_string f.loc) f.in_func f.message)
        r.static_findings;
      List.iter
        (fun (race : Analysis.Race.race) ->
          Printf.printf
            "error: [%s] shared-memory race between %s and %s (%d conflicting \
             cells; e.g. cta %d, barrier interval %d, shared byte %d)\n"
            race.race_kind
            (Bitc.Loc.to_string race.a_loc)
            (Bitc.Loc.to_string race.b_loc)
            race.conflicts race.sample_cta race.sample_epoch race.sample_addr;
          Printf.printf "  site A: %s\n  site B: %s\n"
            (pp_device_path race.a_path) (pp_device_path race.b_path))
        r.races.Analysis.Race.races;
      List.iter
        (fun (a : Analysis.Race.barrier_advice) ->
          Printf.printf
            "advice: __syncthreads at %s in %s separated no conflicting \
             accesses in any of its %d dynamic instances; it may be redundant\n"
            (Bitc.Loc.to_string a.advice_loc)
            a.advice_func a.boundaries)
        r.races.Analysis.Race.redundant_barriers;
      Printf.printf "%s: %d error(s), %d advice\n" w.name errors
        (List.length r.races.Analysis.Race.redundant_barriers)
    end;
    finish ();
    if errors > 0 then exit 1;
    `Ok ()

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Correctness checks: static divergent-barrier and out-of-bounds \
             analysis plus the dynamic shared-memory race detector.  Exits \
             non-zero if any error is found.")
    Term.(
      ret (const check_run $ obs_term $ app_arg $ arch_arg $ scale_arg
          $ json_flag))

(* ----- bypass ----- *)

let bypass_run finish app arch scale =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    let b = Advisor.bypass_study ~arch ?scale w in
    Printf.printf "baseline (no bypassing): %d cycles\n" b.baseline_cycles;
    List.iter
      (fun (n, c) ->
        Printf.printf "  %2d caching warps/CTA: %9d cycles (%.3f)\n" n c
          (float_of_int c /. float_of_int b.baseline_cycles))
      b.sweep;
    Printf.printf "oracle:     N=%d (%d cycles)\n" b.oracle_warps b.oracle_cycles;
    Printf.printf "prediction: N=%d (%d cycles)  [Eq. (1)]\n" b.predicted_warps
      b.predicted_cycles;
    finish ();
    `Ok ()

let bypass_cmd =
  Cmd.v
    (Cmd.info "bypass"
       ~doc:"Horizontal cache-bypassing study: oracle sweep vs the Eq.-(1) model.")
    Term.(ret (const bypass_run $ obs_term $ app_arg $ arch_arg $ scale_arg))

(* ----- evaluate (variant tournament) ----- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Manifest: {"baseline": "name", "variants": [{"name": ...,
   "source_file": ... | "source": ..., "block_x": ...,
   "bypass_warps": ...}, ...]}.  Relative source_file paths resolve
   against the manifest's directory. *)
let parse_manifest path =
  let module Jsonv = Obs.Jsonv in
  let ( let* ) = Result.bind in
  let* doc =
    match Jsonv.parse (read_file path) with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)
    | exception Sys_error msg -> Error msg
  in
  let str_of = function Some (Jsonv.Str s) -> Some s | _ -> None in
  let int_of = function
    | Some (Jsonv.Num f) when Float.is_integer f -> Some (int_of_float f)
    | _ -> None
  in
  let* items =
    match Jsonv.member "variants" doc with
    | Some (Jsonv.Arr items) when items <> [] -> Ok items
    | _ -> Error (Printf.sprintf "%s: needs a non-empty \"variants\" array" path)
  in
  let* specs =
    List.fold_left
      (fun acc (i, v) ->
        let* acc = acc in
        match v with
        | Jsonv.Obj _ ->
          let* source =
            match (str_of (Jsonv.member "source" v),
                   str_of (Jsonv.member "source_file" v)) with
            | Some s, None -> Ok (Some s)
            | None, Some f -> (
              let f =
                if Filename.is_relative f then
                  Filename.concat (Filename.dirname path) f
                else f
              in
              match read_file f with
              | s -> Ok (Some s)
              | exception Sys_error msg -> Error msg)
            | None, None -> Ok None
            | Some _, Some _ ->
              Error
                (Printf.sprintf
                   "%s: variants[%d] has both \"source\" and \"source_file\""
                   path i)
          in
          Ok
            ({ Tune.Evaluate.sp_name =
                 Option.value
                   (str_of (Jsonv.member "name" v))
                   ~default:(Printf.sprintf "v%d" i);
               sp_source = source;
               sp_block_x = int_of (Jsonv.member "block_x" v);
               sp_bypass_warps = int_of (Jsonv.member "bypass_warps" v) }
            :: acc)
        | _ ->
          Error (Printf.sprintf "%s: variants[%d] must be an object" path i))
      (Ok [])
      (List.mapi (fun i v -> (i, v)) items)
  in
  Ok (List.rev specs, str_of (Jsonv.member "baseline" doc))

let evaluate_run finish app arch scale files manifest baseline sweep domains
    json =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w -> (
    let plan =
      let ( let* ) = Result.bind in
      let* specs, manifest_baseline =
        match (sweep, manifest, files) with
        | true, None, [] -> Ok (Tune.Sweep.specs_for w, None)
        | false, Some path, [] -> parse_manifest path
        | false, None, (_ :: _ as files) -> (
          (* one variant per file, named by basename; the pristine
             kernel rides along as the "base" baseline *)
          match
            List.map
              (fun f ->
                { Tune.Evaluate.sp_name =
                    Filename.remove_extension (Filename.basename f);
                  sp_source = Some (read_file f);
                  sp_block_x = None;
                  sp_bypass_warps = None })
              files
          with
          | specs -> Ok (Tune.Evaluate.baseline_spec :: specs, None)
          | exception Sys_error msg -> Error msg)
        | false, None, [] ->
          Error "need variant FILEs, --manifest or --sweep"
        | _ ->
          Error "FILEs, --manifest and --sweep are mutually exclusive"
      in
      let names = List.map (fun (s : Tune.Evaluate.spec) -> s.sp_name) specs in
      let* () =
        match
          List.find_opt
            (fun n -> List.length (List.filter (String.equal n) names) > 1)
            names
        with
        | Some n -> Error (Printf.sprintf "duplicate variant name %S" n)
        | None -> Ok ()
      in
      let baseline =
        match (baseline, manifest_baseline) with
        | Some b, _ -> b
        | None, Some b -> b
        | None, None -> List.hd names
      in
      if List.mem baseline names then Ok (specs, baseline)
      else
        Error
          (Printf.sprintf "baseline %S does not name a variant (have: %s)"
             baseline (String.concat ", " names))
    in
    match plan with
    | Error msg -> `Error (false, msg)
    | Ok (specs, baseline) ->
      let result =
        Tune.Evaluate.run_batch ~domains ?scale ~baseline ~arch w specs
      in
      if json then print_endline (Analysis.Json.to_string result)
      else begin
        let module Jsonv = Obs.Jsonv in
        let doc =
          match Jsonv.parse (Analysis.Json.to_string result) with
          | Ok v -> v
          | Error _ -> Jsonv.Null
        in
        let results_by_name =
          match Jsonv.member "variants" doc with
          | Some (Jsonv.Arr vs) ->
            List.filter_map
              (fun v ->
                match
                  (Option.bind (Jsonv.member "name" v) Jsonv.to_string_opt,
                   Jsonv.member "result" v)
                with
                | Some n, Some r -> Some (n, r)
                | _ -> None)
              vs
          | _ -> []
        in
        let fnum r k =
          match Option.bind (Jsonv.member k r) Jsonv.to_float_opt with
          | Some f -> Printf.sprintf "%.3f" f
          | None -> "-"
        in
        Printf.printf "%s on %s (scale %s, baseline %s):\n"
          w.Workloads.Common.name arch.Gpusim.Arch.name
          (match Jsonv.member "scale" doc with
          | Some (Jsonv.Num f) -> string_of_int (int_of_float f)
          | _ -> "?")
          baseline;
        Printf.printf "%4s  %-16s %-14s %10s  %8s  %7s  %6s  %s\n" "rank"
          "name" "status" "cycles" "speedup" "l1-hit" "m.div" "check";
        (match Jsonv.member "ranking" doc with
        | Some (Jsonv.Arr rows) ->
          List.iter
            (fun row ->
              let name =
                Option.value
                  (Option.bind (Jsonv.member "name" row) Jsonv.to_string_opt)
                  ~default:"?"
              in
              let r = List.assoc_opt name results_by_name in
              let status =
                Option.value
                  (Option.bind (Jsonv.member "status" row) Jsonv.to_string_opt)
                  ~default:"?"
              in
              let num k =
                match Option.bind (Jsonv.member k row) Jsonv.to_float_opt with
                | Some f -> f
                | None -> Float.nan
              in
              Printf.printf "%4.0f  %-16s %-14s %10s  %8s  %7s  %6s  %s\n"
                (num "rank") name status
                (match Jsonv.member "cycles" row with
                | Some (Jsonv.Num f) -> string_of_int (int_of_float f)
                | _ -> "-")
                (match Jsonv.member "speedup_vs_baseline" row with
                | Some (Jsonv.Num f) -> Printf.sprintf "%.3f" f
                | _ -> "-")
                (match r with Some r -> fnum r "l1_hit_rate" | None -> "-")
                (match r with
                | Some r -> fnum r "divergence_degree"
                | None -> "-")
                (match Option.bind r (fun r -> Jsonv.member "check_clean" r) with
                | Some (Jsonv.Bool true) -> "clean"
                | Some (Jsonv.Bool false) -> "DIRTY"
                | _ -> "-"))
            rows
        | _ -> ());
        List.iter
          (fun (n, r) ->
            match
              Option.bind (Jsonv.member "error" r) Jsonv.to_string_opt
            with
            | Some msg -> Printf.printf "  %s: %s\n" n msg
            | None -> ())
          results_by_name
      end;
      finish ();
      `Ok ())

let evaluate_cmd =
  let files_arg =
    Arg.(
      value
      & pos_right 0 file []
      & info [] ~docv:"FILE"
          ~doc:"Kernel-source variant files; each becomes one variant named \
                after its basename, competing against the pristine kernel \
                (variant \"base\").")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:"JSON manifest: {\"baseline\": NAME, \"variants\": [{\"name\", \
                \"source_file\" or \"source\", \"block_x\", \
                \"bypass_warps\"}, ...]}.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"NAME"
          ~doc:"Variant every other variant is ranked against (default: the \
                manifest's baseline, else the first variant).")
  in
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Generate the standard tuning sweep instead of reading variant \
                files: pristine baseline, CTA-width double/halve, \
                half-bypassed warps, and 4x-unrolled inner loops.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Evaluate up to $(docv) variants concurrently.")
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Batch-evaluate kernel variants of one application: per-variant \
             compile status, correctness check, cycles, L1 hit rate and \
             divergence, plus a ranking against a baseline variant.  The \
             same tournament is served by `cudaadvisor serve` as the \
             \"evaluate\" op.")
    Term.(
      ret
        (const evaluate_run $ obs_term $ app_arg $ arch_arg $ scale_arg
        $ files_arg $ manifest_arg $ baseline_arg $ sweep_flag $ domains_arg
        $ json_flag))

(* ----- overhead ----- *)

let overhead_run finish app arch scale =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    let o = Advisor.overhead_study ~arch ?scale w in
    Printf.printf "native:       %9d cycles\ninstrumented: %9d cycles\nslowdown: %.1fx\n"
      o.native_cycles o.instrumented_cycles o.slowdown;
    finish ();
    `Ok ()

let overhead_cmd =
  Cmd.v
    (Cmd.info "overhead" ~doc:"Instrumentation overhead (Figure 10 methodology).")
    Term.(ret (const overhead_run $ obs_term $ app_arg $ arch_arg $ scale_arg))

(* ----- dump-ir / dump-ptx ----- *)

let instrument_flag =
  Arg.(value & flag & info [ "instrument" ] ~doc:"Run the instrumentation engine first.")

let dump_ir_run finish app instrument =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    let m = Workloads.Common.compile w in
    if instrument then ignore (Passes.Instrument.run m);
    print_string (Bitc.Printer.module_to_string m);
    finish ();
    `Ok ()

let dump_ir_cmd =
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print the (optionally instrumented) Bitc IR.")
    Term.(ret (const dump_ir_run $ obs_term $ app_arg $ instrument_flag))

let dump_ptx_run finish app instrument =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    let m = Workloads.Common.compile w in
    if instrument then ignore (Passes.Instrument.run m);
    print_string (Ptx.Printer.prog_to_string (Ptx.Codegen.gen_module m));
    finish ();
    `Ok ()

let dump_ptx_cmd =
  Cmd.v
    (Cmd.info "dump-ptx" ~doc:"Print the generated PTX-like code.")
    Term.(ret (const dump_ptx_run $ obs_term $ app_arg $ instrument_flag))

(* ----- trace (profile the profiler itself) ----- *)

let trace_run app arch scale trace_file metrics log_level =
  match find_app app with
  | `Error _ as e -> e
  | `Ok w ->
    (match log_level with Some l -> Obs.Log.set_level l | None -> ());
    Obs.Trace.enable ();
    let session = Advisor.profile ~arch ?scale w in
    ignore (Advisor.reuse_distance session);
    ignore (Advisor.mem_divergence session);
    ignore (Advisor.branch_divergence session);
    let out = Option.value trace_file ~default:(w.name ^ "-trace.json") in
    Obs.Trace.export_chrome_to_file out;
    print_string (Obs.Trace.to_text ());
    if metrics then print_string (Obs.Metrics.to_text ());
    Printf.printf "wrote Chrome trace to %s (load it in chrome://tracing or ui.perfetto.dev)\n"
      out;
    `Ok ()

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a profiling session with self-profiling enabled: print the span \
             tree and export a Chrome trace of the pipeline itself.")
    Term.(
      ret
        (const trace_run $ app_arg $ arch_arg $ scale_arg $ trace_arg
        $ metrics_flag $ log_arg))

(* ----- serve (long-lived batch-profiling daemon) ----- *)

let serve_run finish socket stdio workers queue_cap timeout_ms no_cache
    cache_entries cache_mb cache_dir metrics_addr access_log =
  let cache =
    if no_cache then None
    else
      Some
        {
          Serve.Rescache.max_entries = cache_entries;
          max_bytes = cache_mb * 1024 * 1024;
          dir = cache_dir;
        }
  in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      (* no socket means the daemon would otherwise serve nothing *)
      stdio = stdio || socket = None;
      workers;
      queue_cap;
      default_timeout_ms = (if timeout_ms <= 0 then None else Some timeout_ms);
      cache;
      metrics_addr;
      access_log;
    }
  in
  match
    let srv = Serve.Server.create cfg in
    let stop _ = Serve.Server.request_shutdown srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Serve.Server.run srv
  with
  | () ->
    finish ();
    `Ok ()
  | exception Failure msg -> `Error (false, msg)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Also listen for clients on a Unix-domain socket at $(docv) \
                (removed again on shutdown).")
  in
  let stdio_flag =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve newline-delimited JSON on stdin/stdout (the default when \
                no $(b,--socket) is given; EOF on stdin drains and exits).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing requests concurrently.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.queue_cap
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded job-queue capacity; further requests are rejected with \
                an \"overloaded\" error until the queue drains.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt int
          (Option.value
             Serve.Server.default_config.Serve.Server.default_timeout_ms
             ~default:0)
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request wall-clock timeout (requests may override \
                with a \"timeout_ms\" field; 0 disables).  A timed-out job \
                aborts its own simulation only.")
  in
  let no_cache_flag =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the content-addressed result cache (every request \
                recomputes).")
  in
  let cache_entries_arg =
    Arg.(
      value
      & opt int Serve.Rescache.default_config.Serve.Rescache.max_entries
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result-cache capacity in entries (least-recently-used \
                eviction).")
  in
  let cache_mb_arg =
    Arg.(
      value
      & opt int
          (Serve.Rescache.default_config.Serve.Rescache.max_bytes
          / (1024 * 1024))
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Result-cache capacity in megabytes of serialized results.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist the result cache to $(docv) so it survives daemon \
                restarts; reloaded (newest first, within the configured \
                bounds) on startup.")
  in
  let metrics_addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"[HOST:]PORT"
          ~doc:"Serve a Prometheus text exposition of the metrics registry \
                over HTTP on $(docv) (host defaults to 127.0.0.1).")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:"Append one NDJSON line per finished request (op, tier, cache \
                disposition, queue wait, latency, outcome) to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived batch-profiling daemon: accepts newline-delimited JSON \
             requests (profile, check, bypass, evaluate, compile, ...) over \
             stdin/stdout and an optional Unix-domain socket, runs them \
             concurrently on a bounded queue, and answers with JSON responses \
             carrying the request id.  Deterministic results are served from a \
             two-tier content-addressed cache.  Shuts down gracefully on \
             SIGINT/SIGTERM.")
    Term.(
      ret
        (const serve_run $ obs_term $ socket_arg $ stdio_flag $ workers_arg
        $ queue_arg $ timeout_arg $ no_cache_flag
        $ cache_entries_arg $ cache_mb_arg $ cache_dir_arg $ metrics_addr_arg
        $ access_log_arg))

(* ----- top (live daemon dashboard) ----- *)

let top_run socket interval_ms frames once =
  let frames = if once then Some 1 else frames in
  match Serve.Top.run ~socket_path:socket ~interval_ms ~frames with
  | () -> `Ok ()
  | exception Failure msg -> `Error (false, msg)

let top_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the daemon to watch.")
  in
  let interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Refresh interval between samples (minimum 50).")
  in
  let frames_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:"Draw $(docv) frames, then exit (default: run until \
                interrupted).")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single dashboard frame without clearing the screen \
                and exit (shorthand for $(b,--frames) 1).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard over a running serve daemon: request \
             throughput, cache hit ratio, queue pressure and per-op latency \
             percentiles with SLO burn, refreshed from the metrics registry.")
    Term.(ret (const top_run $ socket_arg $ interval_arg $ frames_arg $ once_flag))

let () =
  let info =
    Cmd.info "cudaadvisor" ~version:"1.0.0"
      ~doc:"LLVM-style runtime profiling for a simulated modern GPU (CGO'18 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; profile_cmd; report_cmd; check_cmd; bypass_cmd;
            evaluate_cmd; overhead_cmd; trace_cmd; dump_ir_cmd; dump_ptx_cmd;
            serve_cmd; top_cmd ]))
