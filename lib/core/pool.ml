(* A tiny stdlib-only domain pool for experiment sweeps and the serve
   daemon's workers.

   Experiments (bypass sweep points, per-app bench sections) are
   independent full simulations, so they parallelize across OCaml 5
   domains with no shared mutable state beyond the compile cache (which
   deduplicates in-flight compiles per key).  domainslib is deliberately
   not used: the work units are seconds long and few, so a work-stealing
   deque buys nothing over one atomic counter.

   A process-global budget caps the total number of extra domains ever
   live at once: nested [map] calls (apps in parallel, each sweeping
   points in parallel) and long-lived worker groups (`advisor serve`)
   degrade gracefully to fewer domains — down to sequential execution —
   instead of tripping the runtime's domain limit. *)

(* Extra domains beyond the callers themselves; the OCaml runtime caps
   total domains at 128, so leave headroom for the main domain and any
   nesting. *)
let budget = Atomic.make 120

let reserve want =
  if want <= 0 then 0
  else
    let rec go () =
      let avail = Atomic.get budget in
      let take = min want avail in
      if take = 0 then 0
      else if Atomic.compare_and_set budget avail (avail - take) then take
      else go ()
    in
    go ()

let release n = if n > 0 then ignore (Atomic.fetch_and_add budget n)

let available () = Atomic.get budget

(* Worker count when the caller does not pass [~domains]: the
   [POOL_DOMAINS] environment variable, else the runtime's
   recommendation for this machine.  A malformed value warns and falls
   back (it must not abort a long-lived daemon). *)
let default_domains () =
  Obs.Env.positive_int "POOL_DOMAINS" ~default:Domain.recommended_domain_count

(* Every task reports how long it sat in the queue (submission of the
   batch to a worker picking it up) and how long it ran; the sweeps are
   seconds-long simulations, so two clock reads per task are noise. *)
let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_wait = Obs.Metrics.histogram "pool.task.wait_ns"
let m_run = Obs.Metrics.histogram "pool.task.run_ns"

(* [Domain.spawn], indirected so tests can inject spawn failures (the
   runtime only fails a spawn when the process nears its domain limit,
   which a test cannot trigger cheaply). *)
let spawn_fn : ((unit -> unit) -> unit Domain.t) ref = ref Domain.spawn

(* Spawn up to [extra] workers running [work].  A failed spawn is not
   fatal: the budget the worker would have used is released, a warning
   is logged, and the caller proceeds with the workers that did start
   (possibly none — the calling domain always works too). *)
let spawn_workers extra work =
  let workers = ref [] in
  (try
     for _ = 1 to extra do
       workers := !spawn_fn work :: !workers
     done
   with e ->
     let started = List.length !workers in
     release (extra - started);
     Obs.Log.warn "pool"
       "Domain.spawn failed after %d of %d workers (%s); continuing with fewer"
       started extra (Printexc.to_string e));
  !workers

(* [map ?domains f xs] is [List.map f xs] with the applications spread
   over [domains] domains (the caller works too).  Results keep input
   order and do not depend on the domain count; if any application
   raises, the first exception in input order is re-raised after all
   workers finish.  The reserved domain budget is always released and
   spawned workers always joined, even if a spawn fails partway or the
   caller's own share of the work raises. *)
let map ?domains f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let want =
      match domains with Some d -> max 1 d | None -> default_domains ()
    in
    let extra = reserve (min want n - 1) in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let submitted = Obs.Clock.now_ns () in
    let work () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let picked = Obs.Clock.now_ns () in
          Obs.Metrics.incr m_tasks;
          Obs.Metrics.observe m_wait (picked - submitted);
          (match Obs.Trace.with_span ~cat:"pool" "pool.task" (fun () -> f items.(i)) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          Obs.Metrics.observe m_run (Obs.Clock.now_ns () - picked);
          loop ()
        end
      in
      loop ()
    in
    (* Spawn failures release their own share of the budget inside
       [spawn_workers]; the [finally] joins whoever did start and
       releases exactly their share, so the budget balances on every
       path (clean, partial spawn, or an exception out of [work]). *)
    let workers = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter Domain.join !workers;
        release (List.length !workers))
      (fun () ->
        workers := spawn_workers extra work;
        work ());
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list (Array.map Option.get results)
  end

let iter ?domains f xs = ignore (map ?domains (fun x -> f x) xs)

(* ----- long-lived worker groups (the serve daemon) ----- *)

(* A group of worker domains all running the same loop until it returns
   (e.g. pulling jobs from a queue until it is closed).  The workers
   are accounted against the same global budget as [map], so
   simulations running *inside* a served request still degrade
   gracefully when they try to fan out. *)
type group = { domains : unit Domain.t list; count : int }

(* Ask for [want] workers; get between 0 and [want] depending on the
   budget and on spawn success.  [group_size] tells the caller how many
   actually run. *)
let spawn_group ~want work =
  let got = reserve (max 0 want) in
  let domains = spawn_workers got work in
  { domains; count = List.length domains }

let group_size g = g.count

(* Join every worker and return their budget.  Idempotence is the
   caller's problem (a group is joined exactly once). *)
let join_group g =
  List.iter Domain.join g.domains;
  release g.count

(* ----- test-only fault injection ----- *)

module Private = struct
  let set_spawn f = spawn_fn := f
  let reset_spawn () = spawn_fn := Domain.spawn
end
