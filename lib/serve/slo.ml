(* Per-op latency SLOs with error-budget burn accounting.

   Each op gets a fixed total-latency target (queue wait included) and
   a 99% objective: up to 1% of requests may miss the target before the
   error budget is spent.  Every finished request is checked against
   its op's target; misses bump a [serve.slo.<op>.breach] counter, and
   `advisor top` derives the burn ratio from that counter and the
   per-op request histogram — burn < 1 means within budget,
   burn >= 1 means the budget is spent over the daemon's lifetime.

   Targets are deliberately loose (they bound tail pain on a loaded
   1-core container, not the hot-cache fast path); ops with unbounded
   legitimate latency (sleep is client-chosen) have no target. *)

module Metrics = Obs.Metrics

(* Fraction of requests allowed to miss the target. *)
let objective = 0.99
let budget_fraction = 1. -. objective

let default_targets_ms =
  [ ("ping", 50);
    ("list", 50);
    ("metrics", 500);
    ("metrics_raw", 500);
    ("profile_fast", 250);
    ("compile", 60_000);
    ("profile", 120_000);
    ("check", 180_000);
    ("bypass", 300_000) ]

let target_ms op = List.assoc_opt op default_targets_ms

let breaches op = Metrics.counter ("serve.slo." ^ op ^ ".breach")

(* Record one finished request: bump the breach counter when the
   total latency missed the op's target.  No-op for untargeted ops. *)
let observe ~op ~total_ns =
  match target_ms op with
  | None -> ()
  | Some t -> if total_ns > t * 1_000_000 then Metrics.incr (breaches op)

(* Burn ratio over [requests] finished requests: breaches spent against
   the allowed (1 - objective) fraction.  1.0 = budget exactly spent. *)
let burn ~breaches ~requests =
  if requests <= 0 then 0.
  else float_of_int breaches /. (budget_fraction *. float_of_int requests)
