(* Structured, machine-readable profile reports: everything the
   analyzer derives for one application run, as a JSON document, so the
   tool's output can feed scripts and dashboards. *)

let loc_json (loc : Bitc.Loc.t) =
  Json.Obj
    [ ("file", Json.String loc.file); ("line", Json.Int loc.line);
      ("col", Json.Int loc.col) ]

let reuse_distance_json (rd : Reuse_distance.result) =
  Json.Obj
    [ ("samples", Json.Int rd.samples);
      ("finite_reuses", Json.Int rd.finite_reuses);
      ("no_reuse", Json.Int rd.infinite_reuses);
      ("no_reuse_fraction", Json.Float (Reuse_distance.no_reuse_fraction rd));
      ("mean_finite_distance", Json.Float rd.mean_finite_distance);
      ("max_finite_distance", Json.Int rd.max_finite_distance);
      ( "histogram",
        Json.Obj
          (List.map
             (fun (b, c) -> (Reuse_distance.bucket_label b, Json.Int c))
             rd.histogram) ) ]

let mem_divergence_json (md : Mem_divergence.result) =
  let dist =
    List.filter_map
      (fun lines ->
        if md.distribution.(lines) = 0 then None
        else Some (string_of_int lines, Json.Int md.distribution.(lines)))
      (List.init Mem_divergence.max_lines (fun i -> i + 1))
  in
  Json.Obj
    [ ("line_size", Json.Int md.line_size);
      ("instructions", Json.Int md.total_instructions);
      ("degree", Json.Float md.degree); ("distribution", Json.Obj dist) ]

let branch_divergence_json (bd : Branch_divergence.result) =
  Json.Obj
    [ ("divergent_blocks", Json.Int bd.divergent_blocks);
      ("total_blocks", Json.Int bd.total_blocks);
      ("percent", Json.Float (Branch_divergence.percent bd)) ]

let summary_json (s : Statistics.summary) =
  Json.Obj
    [ ("count", Json.Int s.count); ("mean", Json.Float s.mean);
      ("min", Json.Float s.min); ("max", Json.Float s.max);
      ("stddev", Json.Float s.stddev) ]

let sites_json ~line_size traces ~top =
  let sites = Mem_divergence.sites_of_traces ~line_size traces in
  let sites = List.filteri (fun i _ -> i < top) sites in
  Json.List
    (List.map
       (fun (s : Mem_divergence.site) ->
         Json.Obj
           [ ("loc", loc_json s.site_loc);
             ("warp_accesses", Json.Int s.site_count);
             ("avg_unique_lines", Json.Float s.site_avg_lines) ])
       sites)

(* Launch-level hardware counters summed over every kernel instance:
   the [Gpusim.Stats.t] aggregates (barriers, hook calls, transactions,
   ...) that the per-metric sections above do not carry. *)
let launch_stats_json (instances : Profiler.Profile.instance list) =
  let results =
    List.filter_map (fun (i : Profiler.Profile.instance) -> i.result) instances
  in
  let sum f = Json.Int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let stat f = sum (fun (r : Gpusim.Gpu.result) -> f r.stats) in
  Json.Obj
    [ ("launches", Json.Int (List.length results));
      ("cycles", sum (fun r -> r.Gpusim.Gpu.cycles));
      ("ctas", sum (fun r -> r.Gpusim.Gpu.ctas));
      ("warp_insts", stat (fun s -> s.Gpusim.Stats.warp_insts));
      ("thread_insts", stat (fun s -> s.Gpusim.Stats.thread_insts));
      ("global_loads", stat (fun s -> s.Gpusim.Stats.global_loads));
      ("global_stores", stat (fun s -> s.Gpusim.Stats.global_stores));
      ("global_atomics", stat (fun s -> s.Gpusim.Stats.global_atomics));
      ("load_transactions", stat (fun s -> s.Gpusim.Stats.load_transactions));
      ("store_transactions", stat (fun s -> s.Gpusim.Stats.store_transactions));
      ("shared_accesses", stat (fun s -> s.Gpusim.Stats.shared_accesses));
      ("branches", stat (fun s -> s.Gpusim.Stats.branches));
      ("divergent_branches", stat (fun s -> s.Gpusim.Stats.divergent_branches));
      ("hook_calls", stat (fun s -> s.Gpusim.Stats.hook_calls));
      ("barriers", stat (fun s -> s.Gpusim.Stats.barriers)) ]

(* Bank-conflict section: only emitted when the profile ran under the
   bank model, so reports from default runs stay byte-identical. *)
let bank_conflict_json (bc : Bank_conflict.result) =
  Json.Obj
    [ ("banks", Json.Int bc.Bank_conflict.banks);
      ("bank_width", Json.Int bc.bank_width);
      ("replay_cost", Json.Int bc.replay_cost);
      ("shared_accesses", Json.Int bc.shared_accesses);
      ("conflict_accesses", Json.Int bc.conflict_accesses);
      ("broadcast_accesses", Json.Int bc.broadcast_accesses);
      ("replays", Json.Int bc.replays);
      ("wasted_cycles", Json.Int bc.wasted_cycles);
      ( "sites",
        Json.List
          (List.map
             (fun (s : Bank_conflict.site) ->
               Json.Obj
                 [ ("loc", loc_json s.site_loc);
                   ("kind", Json.String s.site_kind);
                   ("conflicts", Json.Int s.site_conflicts);
                   ("replays", Json.Int s.site_replays);
                   ("max_degree", Json.Int s.site_max_degree);
                   ("avg_degree", Json.Float s.site_avg_degree);
                   ("broadcast_lanes", Json.Int s.site_broadcast_lanes);
                   ("wasted_cycles", Json.Int s.site_wasted_cycles) ])
             bc.sites) ) ]

(* The full report of one profiled application run.  [bank_conflict]
   appends the bank-model section (present only for [--bankmodel]
   runs). *)
let of_profile ?(top_sites = 5) ?bank_conflict ~app ~arch_name ~line_size
    (profiler : Profiler.Profile.t) =
  let instances = Profiler.Profile.instances profiler in
  (* an application that launched nothing still gets a valid report *)
  let rd =
    match instances with
    | [] -> Reuse_distance.of_events []
    | _ -> Reuse_distance.merge (List.map Reuse_distance.of_instance instances)
  in
  let md =
    match instances with
    | [] -> Mem_divergence.of_events ~line_size []
    | _ ->
      Mem_divergence.merge
        (List.map (Mem_divergence.of_instance ~line_size) instances)
  in
  let bd = Branch_divergence.of_instances instances in
  let contexts =
    Statistics.by_context instances ~metric:Statistics.cycles
    |> List.map (fun (ctx, s) ->
           Json.Obj [ ("context", Json.String ctx); ("cycles", summary_json s) ])
  in
  Json.Obj
    ([ ("application", Json.String app);
       ("architecture", Json.String arch_name);
       ("kernel_launches", Json.Int (List.length instances));
       ("launch_stats", launch_stats_json instances);
       ("reuse_distance", reuse_distance_json rd);
       ("memory_divergence", mem_divergence_json md);
       ("branch_divergence", branch_divergence_json bd);
       ( "divergent_sites",
         sites_json ~line_size
           (List.map (fun (i : Profiler.Profile.instance) -> i.trace) instances)
           ~top:top_sites );
       ("contexts", Json.List contexts) ]
    @
    match bank_conflict with
    | None -> []
    | Some bc -> [ ("bank_conflict", bank_conflict_json bc) ])

(* ----- the bypassing-study report ----- *)

(* Machine-readable Figures 6/7 row (used by the serve daemon's
   `bypass` op).  Takes scalars rather than [Advisor.bypass_experiment]
   so this encoder stays below the core library in the dependency
   order. *)
let bypass_json ~app ~arch_name ~warps_per_cta ~baseline_cycles ~sweep
    ~oracle_warps ~oracle_cycles ~predicted_warps ~predicted_cycles =
  Json.Obj
    [ ("application", Json.String app);
      ("architecture", Json.String arch_name);
      ("warps_per_cta", Json.Int warps_per_cta);
      ("baseline_cycles", Json.Int baseline_cycles);
      ( "sweep",
        Json.List
          (List.map
             (fun (n, c) ->
               Json.Obj
                 [ ("caching_warps", Json.Int n); ("cycles", Json.Int c) ])
             sweep) );
      ( "oracle",
        Json.Obj
          [ ("warps", Json.Int oracle_warps); ("cycles", Json.Int oracle_cycles) ]
      );
      ( "predicted",
        Json.Obj
          [ ("warps", Json.Int predicted_warps);
            ("cycles", Json.Int predicted_cycles) ] ) ]

(* ----- the static-estimate report (`profile --tier static`) ----- *)

let confidence_json c = Json.String (Passes.Estimate.confidence_label c)

(* The IR-only counterpart of [of_profile]: same top-level metric
   sections, each value paired with its confidence tier, plus the
   per-site access patterns and loop bounds the estimator recovered.
   A "tier" field distinguishes it from a simulated profile at a
   glance. *)
let estimate_json ~app ~arch_name (e : Passes.Estimate.t) =
  let bx, by = e.Passes.Estimate.block in
  Json.Obj
    ([ ("application", Json.String app);
      ("architecture", Json.String arch_name);
      ("tier", Json.String "static");
      ( "block",
        Json.Obj [ ("x", Json.Int bx); ("y", Json.Int by) ] );
      ("line_size", Json.Int e.line_size);
      ( "memory_divergence",
        Json.Obj
          [ ("degree", Json.Float e.degree);
            ("confidence", confidence_json e.degree_confidence) ] );
      ( "branch_divergence",
        Json.Obj
          [ ("percent", Json.Float e.branch_percent);
            ("confidence", confidence_json e.branch_confidence) ] );
      ( "reuse_distance",
        Json.Obj
          [ ("no_reuse_fraction", Json.Float e.no_reuse_fraction);
            ("confidence", confidence_json e.reuse_confidence);
            ( "histogram",
              Json.Obj
                (List.map
                   (fun (label, frac) -> (label, Json.Float frac))
                   e.reuse_histogram) ) ] );
      ( "sites",
        Json.List
          (List.map
             (fun (s : Passes.Estimate.site) ->
               Json.Obj
                 [ ("loc", loc_json s.site_loc);
                   ("function", Json.String s.site_func);
                   ("kind", Json.String s.site_kind);
                   ("pattern", Json.String s.pattern);
                   ("lines", Json.Float s.lines);
                   ("confidence", confidence_json s.lines_confidence);
                   ("weight", Json.Float s.weight) ])
             e.sites) );
      ( "loop_bounds",
        Json.List
          (List.map
             (fun (l : Passes.Estimate.loop_bound) ->
               Json.Obj
                 [ ("function", Json.String l.loop_func);
                   ("header", Json.String l.loop_header);
                   ("trips", Json.Float l.trips);
                   ("confidence", confidence_json l.trips_confidence) ])
             e.loop_bounds) ) ]
    @
    (* Only apps touching shared memory get the section, so estimate
       reports for the (shared-free) golden apps keep their exact
       pre-bank-model bytes. *)
    (match e.shared_sites with
    | [] -> []
    | shared ->
      [ ( "bank_conflict",
          Json.Obj
            [ ("banks", Json.Int e.banks);
              ("bank_width", Json.Int e.bank_width);
              ("predicted_degree", Json.Int e.bank_degree);
              ("confidence", confidence_json e.bank_confidence);
              ( "sites",
                Json.List
                  (List.map
                     (fun (s : Passes.Estimate.shared_site) ->
                       Json.Obj
                         [ ("loc", loc_json s.sh_loc);
                           ("function", Json.String s.sh_func);
                           ("kind", Json.String s.sh_kind);
                           ("pattern", Json.String s.sh_pattern);
                           ("degree", Json.Int s.sh_degree);
                           ("broadcast", Json.Bool s.sh_broadcast);
                           ("confidence", confidence_json s.sh_confidence) ])
                     shared) ) ] ) ]))

(* ----- the `advisor check` report ----- *)

let path_json path =
  Json.List
    (List.map
       (fun (fn, loc) ->
         Json.Obj [ ("function", Json.String fn); ("loc", loc_json loc) ])
       path)

let static_finding_json (f : Passes.Check_static.finding) =
  Json.Obj
    [ ("kind", Json.String "static"); ("rule", Json.String f.rule);
      ("function", Json.String f.in_func); ("loc", loc_json f.loc);
      ("related", loc_json f.related); ("message", Json.String f.message) ]

let race_json (r : Race.race) =
  Json.Obj
    [ ("kind", Json.String "shared-race");
      ("rule", Json.String r.race_kind);
      ( "sites",
        Json.List
          [ Json.Obj [ ("loc", loc_json r.a_loc); ("path", path_json r.a_path) ];
            Json.Obj [ ("loc", loc_json r.b_loc); ("path", path_json r.b_path) ]
          ] );
      ("conflicting_cells", Json.Int r.conflicts);
      ( "sample",
        Json.Obj
          [ ("cta", Json.Int r.sample_cta); ("epoch", Json.Int r.sample_epoch);
            ("shared_byte", Json.Int r.sample_addr) ] ) ]

let barrier_advice_json (a : Race.barrier_advice) =
  Json.Obj
    [ ("kind", Json.String "redundant-barrier");
      ("function", Json.String a.advice_func); ("loc", loc_json a.advice_loc);
      ("dynamic_boundaries", Json.Int a.boundaries);
      ( "message",
        Json.String
          "no cross-warp sharing spans this barrier in any observed epoch; \
           it may be removable" ) ]

(* The combined static + dynamic correctness report.  [errors] are
   definite findings (`advisor check` fails on any); [advice] is
   non-failing guidance. *)
let check_json ~app ~(static : Passes.Check_static.finding list)
    (races : Race.result) =
  let errors =
    List.map static_finding_json static @ List.map race_json races.Race.races
  in
  Json.Obj
    [ ("application", Json.String app);
      ("error_count", Json.Int (List.length errors));
      ("errors", Json.List errors);
      ( "advice",
        Json.List (List.map barrier_advice_json races.Race.redundant_barriers)
      ) ]

let to_string = Json.to_string
