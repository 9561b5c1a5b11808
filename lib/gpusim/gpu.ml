(* Kernel launch engine: CTA scheduling across SMs, per-SM greedy
   warp scheduling driven by an event queue, barrier handling, and
   result/statistics collection. *)

exception Launch_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Launch_error s)) fmt

type device = {
  arch : Arch.t;
  devmem : Devmem.t;
  l2 : Cache.t;
}

let create_device arch =
  {
    arch;
    devmem = Devmem.create ();
    l2 = Cache.create ~size:arch.Arch.l2_size ~assoc:arch.Arch.l2_assoc ~line:arch.Arch.line_size;
  }

type result = {
  cycles : int;
  stats : Stats.t;
  l1_stats : Cache.stats;
  l2_stats : Cache.stats; (* delta for this launch *)
  mshr_stalls : int;
  mshr_merges : int;
  ctas : int;
  warps_per_cta : int;
}

let launch_overhead = 2_000

(* Runaway guard, per warp: a single warp spinning without progress is
   the failure mode this catches (the old launch-global counter tripped
   on the *sum* over warps, so big-enough grids could trip it without
   any warp misbehaving).  The limit is configurable — programmatically
   (CLI `--max-warp-instrs`) or through the CUDAADVISOR_MAX_WARP_INSTRS
   environment variable — and sampled once per launch. *)
let default_max_warp_insts = 50_000_000

let max_warp_insts_override : int option ref = ref None

let set_max_warp_insts limit =
  if limit <= 0 then invalid_arg "Gpu.set_max_warp_insts: limit must be positive";
  max_warp_insts_override := Some limit

let clear_max_warp_insts () = max_warp_insts_override := None

let max_warp_insts () =
  match !max_warp_insts_override with
  | Some n -> n
  | None ->
    (* malformed values warn (once per launch) and fall back — they must
       never abort a long-lived daemon *)
    Obs.Env.positive_int "CUDAADVISOR_MAX_WARP_INSTRS"
      ~default:(fun () -> default_max_warp_insts)

(* ----- per-domain cancellation (wall-clock timeouts) -----

   A long-lived embedder (`advisor serve`) needs to abort one runaway
   *request* without killing the process or waiting for the
   instruction-count runaway guard, which is calibrated for honest
   workloads, not deadlines.  The embedder installs a check on its own
   domain (typically "past the request deadline?"); the launch loop
   polls it on entry and then every [cancel_poll_mask + 1] executed
   instructions — layered on the guard, which stays the backstop for
   infinite loops when no deadline is set.  Raising {!Cancelled}
   unwinds this launch only; the device and all other domains are
   untouched. *)

exception Cancelled of string

let cancel_key : (unit -> string option) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fun () -> None)

let set_cancel_check f = Domain.DLS.set cancel_key f
let clear_cancel_check () = Domain.DLS.set cancel_key (fun () -> None)

(* The calling domain's installed check, for propagating one request's
   deadline into worker domains it fans work out to (DLS does not
   inherit across [Domain.spawn]). *)
let current_cancel_check () = Domain.DLS.get cancel_key

(* Poll the calling domain's check and raise if it fired.  Exposed for
   non-simulation long operations (the serve daemon's diagnostic ops). *)
let poll_cancel () =
  match (Domain.DLS.get cancel_key) () with
  | Some reason -> raise (Cancelled reason)
  | None -> ()

let cancel_poll_mask = 0xFFF (* poll every 4096 executed instructions *)

(* Resident-CTA limit per SM.  Shared allocations round up to the
   hardware allocation granularity before dividing into the SM's array,
   and a CTA that cannot fit on an SM at all is a launch error — the
   old [max 1] silently scheduled a CTA whose warps exceeded
   [max_warps_per_sm]. *)
let occupancy_limit (arch : Arch.t) ~warps_per_cta ~shared_bytes =
  if warps_per_cta > arch.max_warps_per_sm then
    fail "CTA of %d warps exceeds the SM limit of %d warps" warps_per_cta
      arch.max_warps_per_sm;
  let by_warps = arch.max_warps_per_sm / warps_per_cta in
  let g = arch.shared_alloc_granularity in
  let rounded = (shared_bytes + g - 1) / g * g in
  let by_shared =
    if rounded = 0 then max_int else arch.shared_mem_per_sm / rounded
  in
  if by_shared = 0 then
    fail
      "CTA shared allocation of %d B (%d B after %d B-granularity rounding) \
       exceeds the SM's %d B"
      shared_bytes rounded g arch.shared_mem_per_sm;
  min arch.max_ctas_per_sm (min by_warps by_shared)

(* ----- self-profiling (Obs) -----

   Always-on registry instruments are updated once per launch / per SM
   — noise next to the event loop.  In-loop sampling (scheduler queue
   depth, MSHR occupancy) reads the tracing flag once per launch and
   fires every [sample_period] pops only when tracing is enabled, so
   the disabled hot path pays one hoisted bool and a land/branch per
   pop. *)

let m_launches = Obs.Metrics.counter "sim.launches"
let m_cycles = Obs.Metrics.counter "sim.cycles"
let m_warp_insts = Obs.Metrics.counter "sim.warp_insts"
let m_sched_pops = Obs.Metrics.counter "sim.sched.pops"
let m_requeues = Obs.Metrics.counter "sim.sched.requeues"
let m_l1_hit_rate = Obs.Metrics.histogram "sim.l1.hit_rate_pct"
let m_mshr_occupancy = Obs.Metrics.histogram "sim.mshr.occupancy"
let m_queue_depth = Obs.Metrics.histogram "sim.queue.depth"

let sample_period_mask = 255 (* sample every 256 pops *)

(* Per-SM cycle gauges, interned once per SM index. *)
let sm_cycle_gauges : (int, Obs.Metrics.gauge) Hashtbl.t = Hashtbl.create 64
let sm_gauges_lock = Mutex.create ()

let sm_cycle_gauge i =
  Mutex.protect sm_gauges_lock (fun () ->
      match Hashtbl.find_opt sm_cycle_gauges i with
      | Some g -> g
      | None ->
        let g = Obs.Metrics.gauge (Printf.sprintf "sim.sm%d.cycles" i) in
        Hashtbl.replace sm_cycle_gauges i g;
        g)

let launch ?(sink = Hookev.null_sink) ?(l1_enabled = true) ?(bankmodel = false)
    device ~prog ~kernel ~grid:(gx, gy) ~block:(bx, by)
    ~args () : result =
  Obs.Trace.with_span ~cat:"sim" ("launch:" ^ kernel) @@ fun () ->
  let obs_on = Obs.Trace.enabled () in
  let arch = device.arch in
  let kf = Ptx.Isa.find_func prog kernel in
  if not kf.is_kernel then fail "%s is not a kernel" kernel;
  if List.length args <> kf.arity then
    fail "%s expects %d arguments, got %d" kernel kf.arity (List.length args);
  let threads_per_cta = bx * by in
  if threads_per_cta <= 0 || threads_per_cta > arch.max_threads_per_cta then
    fail "block size %dx%d out of range" bx by;
  if gx <= 0 || gy <= 0 then fail "empty grid %dx%d" gx gy;
  let max_warp_insts = max_warp_insts () in
  (* sampled once per launch: the cancellation check of the domain that
     issued this launch (a constant [fun () -> None] unless an embedder
     installed one) *)
  let cancel_check = Domain.DLS.get cancel_key in
  (* cheap launches may execute fewer instructions than a poll period,
     so an expired deadline must also cancel at launch entry *)
  (match cancel_check () with
  | Some reason ->
    Obs.Log.warn "gpusim" "kernel %s: launch cancelled: %s" kernel reason;
    raise (Cancelled reason)
  | None -> ());
  let warps_per_cta = (threads_per_cta + 31) / 32 in
  let shared_bytes = Ptx.Isa.shared_bytes_for_launch prog kernel in
  if shared_bytes > arch.shared_mem_per_sm then
    fail "kernel needs %d B shared memory, SM has %d" shared_bytes
      arch.shared_mem_per_sm;
  (* decode once per program; cached across launches and sweeps *)
  let dec = Ptx.Decode.of_prog prog in
  let kdf = dec.Ptx.Isa.dfuncs.(Ptx.Decode.func_index dec kernel) in
  let stats = Stats.create () in
  let addr_scratch, line_scratch = Exec.make_scratch () in
  let ctx =
    {
      Exec.arch;
      prog;
      dec;
      kernel;
      devmem = device.devmem;
      l2 = device.l2;
      sink;
      stats;
      grid = (gx, gy);
      block = (bx, by);
      l1_enabled;
      l2_free = ref 0;
      dram_free = ref 0;
      hook_free = ref 0;
      addr_scratch;
      line_scratch;
      bankmodel;
      (* conflict detection runs whenever a profiler is listening or the
         bank model charges cycles; bare native runs skip it entirely *)
      bankcount = bankmodel || sink != Hookev.null_sink;
      bank_scratch = Array.make 32 0;
      bank_count = Array.make arch.shared_banks 0;
    }
  in
  let sms =
    Array.init arch.num_sms (fun i ->
        {
          Machine.sm_id' = i;
          l1 = Cache.create ~size:arch.l1_size ~assoc:arch.l1_assoc ~line:arch.line_size;
          mshr = Mshr.create arch.mshr_entries;
          next_issue = 0;
          l1_port_free = 0;
          resident_ctas = 0;
        })
  in
  let l2_before =
    { device.l2.Cache.stats with Cache.reads = device.l2.Cache.stats.Cache.reads }
  in
  (* the event queue of ready warps; golden metrics depend on its pop
     order down to arrangement-dependent tie-breaks (see DESIGN.md) *)
  let q : (Machine.sm * Machine.warp) Heap.t = Heap.create () in
  let total_ctas = gx * gy in
  let next_cta = ref 0 in
  let end_time = ref 0 in
  let args = Array.of_list args in
  let make_cta ~linear ~(sm : Machine.sm) ~start_time =
    let cx = linear mod gx and cy = linear / gx in
    let rec cta =
      {
        Machine.cta_x = cx;
        cta_y = cy;
        cta_linear = linear;
        (* sized exactly: Exec bounds-checks every shared access, so a
           0-byte kernel gets no silent padding byte to land in *)
        shared = Bytes.make shared_bytes '\000';
        warps = [||];
        at_barrier = 0;
        finished_warps = 0;
        sm_id = sm.Machine.sm_id';
      }
    and warps =
      lazy
        (Array.init warps_per_cta (fun w ->
             let first_thread = w * 32 in
             let live =
               min 32 (threads_per_cta - first_thread) |> fun n ->
               if n <= 0 then 0 else Machine.full_mask n
             in
             let frame = Machine.make_frame kdf ~init_mask:live ~ret_dst:None in
             Array.iteri
               (fun i v ->
                 Machine.iter_lanes live (fun lane ->
                     Machine.set_reg_value frame lane i v))
               args;
             {
               Machine.warp_id = w;
               live_mask = live;
               cta;
               frames = [ frame ];
               ready_at = start_time;
               status = Machine.Ready;
               barrier_arrival = 0;
               insts = 0;
             }))
    in
    cta.Machine.warps <- Lazy.force warps;
    sm.Machine.resident_ctas <- sm.Machine.resident_ctas + 1;
    Array.iter (fun w -> Heap.push q w.Machine.ready_at (sm, w)) cta.Machine.warps;
    cta
  in
  (* Initial CTA placement: fill SMs round-robin up to the occupancy
     limit. *)
  let limit = occupancy_limit arch ~warps_per_cta ~shared_bytes in
  (try
     for _round = 1 to limit do
       Array.iter
         (fun sm ->
           if !next_cta < total_ctas then begin
             ignore (make_cta ~linear:!next_cta ~sm ~start_time:0);
             incr next_cta
           end
           else raise Exit)
         sms
     done
   with Exit -> ());
  (* Barrier release: when every non-finished warp of the CTA arrived. *)
  let try_release_barrier (cta : Machine.cta) =
    let active = Array.length cta.warps - cta.finished_warps in
    if active > 0 && cta.at_barrier >= active then begin
      let release_time =
        Array.fold_left
          (fun acc (w : Machine.warp) ->
            if w.status = Machine.At_barrier then max acc w.barrier_arrival else acc)
          0 cta.warps
      in
      cta.at_barrier <- 0;
      Array.iter
        (fun (w : Machine.warp) ->
          if w.status = Machine.At_barrier then begin
            w.status <- Machine.Ready;
            w.ready_at <- release_time;
            let sm = sms.(cta.sm_id) in
            Heap.push q w.ready_at (sm, w)
          end)
        cta.warps
    end
    else if active = 0 && cta.at_barrier > 0 then cta.at_barrier <- 0
  in
  (* Main event loop.  Each pop steps its warp in a *superstep*: as long
     as the warp stays ready and requeueing it would pop it right back
     (the [Heap.run_ahead_ok] identity check), keep stepping it without
     touching the queue.  The skipped push/pop pairs are exact no-ops
     on the queue's internal arrangement, so event ordering — including
     tie-breaks — and therefore cycle counts are bit-identical to the
     one-instruction-per-pop loop. *)
  let pops = ref 0 in
  let steps = ref 0 in
  while not (Heap.is_empty q) do
    match Heap.pop q with
    | None -> ()
    | Some (_, (sm, warp)) -> (
      stats.Stats.sched_pops <- stats.Stats.sched_pops + 1;
      (* scheduler/memory-system sampling: only when tracing is on, and
         only every [sample_period_mask + 1] pops *)
      if obs_on then begin
        incr pops;
        if !pops land sample_period_mask = 0 then begin
          Obs.Metrics.observe m_queue_depth (Heap.size q);
          Obs.Metrics.observe m_mshr_occupancy (Mshr.in_flight sm.Machine.mshr)
        end
      end;
      match warp.Machine.status with
      | Machine.Finished | Machine.At_barrier -> ()
      | Machine.Ready ->
        let running = ref true in
        while !running do
          Exec.step ctx sm warp;
          incr steps;
          (if !steps land cancel_poll_mask = 0 then
             match cancel_check () with
             | Some reason ->
               Obs.Log.warn "gpusim" "kernel %s: launch cancelled: %s" kernel reason;
               raise (Cancelled reason)
             | None -> ());
          if warp.Machine.insts > max_warp_insts then begin
            Obs.Log.error "gpusim"
              "kernel %s: warp %d of CTA %d exceeded %d instructions (runaway \
               loop?); aborting launch"
              kernel warp.Machine.warp_id warp.Machine.cta.Machine.cta_linear
              max_warp_insts;
            fail "kernel %s: warp exceeded %d instructions (runaway loop?)" kernel
              max_warp_insts
          end;
          if warp.Machine.ready_at > !end_time then end_time := warp.Machine.ready_at;
          match warp.Machine.status with
          | Machine.Ready ->
            if not (Heap.run_ahead_ok q warp.Machine.ready_at) then begin
              Heap.push q warp.Machine.ready_at (sm, warp);
              running := false
            end
          | Machine.At_barrier ->
            running := false;
            try_release_barrier warp.Machine.cta
          | Machine.Finished ->
            running := false;
            let cta = warp.Machine.cta in
            try_release_barrier cta;
            if cta.Machine.finished_warps = Array.length cta.Machine.warps then begin
              sm.Machine.resident_ctas <- sm.Machine.resident_ctas - 1;
              if !next_cta < total_ctas then begin
                ignore
                  (make_cta ~linear:!next_cta ~sm ~start_time:warp.Machine.ready_at);
                incr next_cta
              end
            end
        done)
  done;
  if !next_cta < total_ctas then
    fail "launch of %s ended with %d/%d CTAs unscheduled" kernel !next_cta total_ctas;
  let l1_stats =
    Array.fold_left
      (fun acc (sm : Machine.sm) -> Cache.add_stats acc sm.l1.Cache.stats)
      (Cache.empty_stats ()) sms
  in
  let l2_stats =
    {
      Cache.reads = device.l2.Cache.stats.Cache.reads - l2_before.Cache.reads;
      read_hits = device.l2.Cache.stats.Cache.read_hits - l2_before.Cache.read_hits;
      read_misses = device.l2.Cache.stats.Cache.read_misses - l2_before.Cache.read_misses;
      writes = device.l2.Cache.stats.Cache.writes - l2_before.Cache.writes;
      write_evictions =
        device.l2.Cache.stats.Cache.write_evictions - l2_before.Cache.write_evictions;
    }
  in
  let mshr_stalls =
    Array.fold_left (fun acc (sm : Machine.sm) -> acc + sm.mshr.Mshr.stall_cycles) 0 sms
  in
  let mshr_merges =
    Array.fold_left (fun acc (sm : Machine.sm) -> acc + sm.mshr.Mshr.merges) 0 sms
  in
  (* per-launch self-profiling: registry counters/histograms always,
     per-SM gauges and trace counter tracks only when tracing *)
  Obs.Metrics.incr m_launches;
  Obs.Metrics.add m_cycles (!end_time + launch_overhead);
  Obs.Metrics.add m_warp_insts stats.Stats.warp_insts;
  Obs.Metrics.add m_sched_pops stats.Stats.sched_pops;
  Obs.Metrics.add m_requeues stats.Stats.requeues;
  Array.iter
    (fun (sm : Machine.sm) ->
      let s = sm.l1.Cache.stats in
      if s.Cache.reads > 0 then
        Obs.Metrics.observe m_l1_hit_rate
          (int_of_float (100. *. Cache.hit_rate s)))
    sms;
  if obs_on then begin
    Array.iter
      (fun (sm : Machine.sm) ->
        Obs.Metrics.set_gauge (sm_cycle_gauge sm.Machine.sm_id')
          (float_of_int sm.Machine.next_issue))
      sms;
    (if l1_stats.Cache.reads > 0 then
       Obs.Trace.counter ~cat:"sim" "l1.hit_rate_pct"
         (100. *. Cache.hit_rate l1_stats));
    if device.l2.Cache.stats.Cache.reads > 0 then
      Obs.Trace.counter ~cat:"sim" "l2.hit_rate_pct"
        (100. *. Cache.hit_rate device.l2.Cache.stats)
  end;
  {
    cycles = !end_time + launch_overhead;
    stats;
    l1_stats;
    l2_stats;
    mshr_stalls;
    mshr_merges;
    ctas = total_ctas;
    warps_per_cta;
  }
