(* Request -> content-addressed result key.

   A request is cacheable when its result is a pure function of the
   request content: [profile], [check] and [bypass] — their reports
   are deterministic (pinned by the golden-metric tests) and every
   input that can change the bytes is folded into the key.  The other
   ops read mutable process state (uptime, the metrics registry, the
   span buffers, the compile-cache counters) or exist for their side
   effects, so they are never cached.

   Canonicalization before hashing:
   - field defaults are filled in exactly as the router would
     (arch "kepler", per-app default scale), so {"op":"profile",
     "app":"nn"} and the same request with the defaults spelled out
     share one entry;
   - the arch name is resolved to the architecture's canonical short
     name, collapsing aliases ("kepler" = "kepler-16k");
   - the app name is replaced by (name, canonicalized source), so a
     key identifies the *content* profiled, not just its label;
   - [Advisor.result_key] sorts the field list, so key construction
     is independent of request-field order by construction;
   - the answer tier is part of the key: a profile request is keyed as
     op "profile" with an explicit tier field ("exact" by default,
     "static" for [profile_fast] / ["tier":"static"]), so a cached
     static estimate can never answer an exact profile request — nor
     the reverse — while [profile_fast] and its spelled-out form share
     one entry;
   - fields that cannot change the result bytes are excluded:
     [id] (echoed around the cached payload), [timeout_ms] (a hit is
     faster than any deadline) and [domains] (bypass results are
     documented domain-count-independent).

   [evaluate] is deliberately NOT whole-batch cacheable: its response
   bytes depend on the variant mix, names and baseline of one
   submission.  Caching happens one level down instead — the router
   threads the result cache into [Tune.Evaluate.run_batch], which keys
   each variant's result object by [Tune.Evaluate.variant_key]
   ("evaluate.variant" | app | arch | scale | variant source | knobs),
   so any batch containing a previously evaluated variant hits, no
   matter how the surrounding batch is shaped. *)

let cacheable_ops = [ "profile"; "profile_fast"; "check"; "bypass" ]

(* Canonical (op-for-key, extra fields) of a request: the two spellings
   of a static profile collapse to one identity, and the tier tag keeps
   static and exact results apart. *)
let canonical_op (r : Protocol.request) =
  match r.op with
  | "profile" | "profile_fast" ->
    let tier = if Router.is_static r then "static" else "exact" in
    (* bankmodel changes the result bytes (cycle totals + report
       section), so opting in forks the key; the default spelling and
       an explicit false share the pre-existing entry. *)
    let extra =
      if (not (Router.is_static r))
         && Option.value r.Protocol.bankmodel ~default:false
      then [ ("bankmodel", "on"); ("tier", tier) ]
      else [ ("tier", tier) ]
    in
    ("profile", extra)
  | op -> (op, [])

(* [None] = this request must not be served from (or stored into) the
   cache.  Unresolvable app/arch names also return [None]: validation
   rejects them before any cache interaction. *)
let of_request (r : Protocol.request) : string option =
  if not (List.mem r.op cacheable_ops) then None
  else
    match r.app with
    | None -> None
    | Some name -> (
      match
        (Workloads.Registry.find_opt name, Gpusim.Arch.of_name r.arch_name)
      with
      | Some w, Some arch ->
        let scale =
          Option.value r.scale ~default:w.Workloads.Common.default_scale
        in
        let op, extra = canonical_op r in
        Some
          (Advisor.result_key ~op ~app:w.Workloads.Common.name
             ~arch_name:arch.Gpusim.Arch.short_name ~scale ~extra
             ~source:w.Workloads.Common.source ())
      | _ -> None)
