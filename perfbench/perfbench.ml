(* perfbench: the repository benchmark.

     perfbench --workload profile-exact|evaluate-batch|served-hot
               --seed N --seconds S --trace 0|1

   --trace 0 drives a real `advisor serve` daemon (a child process) from
   this one client process and prints the end-to-end metrics; --trace 1
   replays the same inputs in-process through the layers' public
   functions with spans around each call and prints the per-layer
   metrics.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

let run_dir = ".perfbench"
let advisor_exe = "_build/default/bin/advisor_cli.exe"

(* ----- run-wide bookkeeping ----- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let problem fmt =
  Printf.ksprintf (fun s -> if List.length !problems < 20 then problems := s :: !problems) fmt

(* Metrics of this run, in print order: (name, value, unit). *)
let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Human-readable lines that are not part of the final JSON object. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ----- calibration ----- *)

(* A fixed pure-OCaml loop (integer hashing plus a small array walk),
   timed in-process so a change of machine shows next to a change of
   code.  Not an end-to-end metric. *)
let calibrate_once () =
  let a = Array.init 4096 (fun i -> i * 7919) in
  let t0 = Unix.gettimeofday () in
  let h = ref 0 in
  for i = 1 to 30_000_000 do
    h := (!h * 31) + a.(i land 4095) + i;
    h := !h lxor (!h lsr 17)
  done;
  ignore (Sys.opaque_identity !h);
  (Unix.gettimeofday () -. t0) *. 1e3

let calibrate () = List.fold_left Float.min infinity (List.init 3 (fun _ -> calibrate_once ()))

(* ----- answers remembered across runs ----- *)

(* The code under test: the daemon, and this program, which links the
   same libraries for the traced replay.  Answers and counts are
   remembered per build, so a rebuilt checkout starts a fresh record. *)
let build_id =
  lazy (Digest.to_hex (Digest.string (Digest.file advisor_exe ^ Digest.file Sys.executable_name)))

let read_entries path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> (
      match String.index_opt l '\t' with
      | Some i -> read ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
      | None -> read acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let append_entries path entries =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) entries;
  close_out oc

(* The "name=value" fields of two count lines that differ. *)
let changed_fields a b =
  let fields l =
    List.map
      (fun f ->
        match String.index_opt f '=' with
        | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
        | None -> (f, ""))
      (String.split_on_char ' ' l)
  in
  let fb = fields b in
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k fb with
      | Some v' when v' <> v -> Some (Printf.sprintf "%s %s -> %s" k v v')
      | _ -> None)
    (fields a)

(* [.perfbench/<build>/<name>.txt] holds "<key> TAB <value>" lines from
   the first run of this build that produced the key; every later run of
   the same build must produce the same values.  Values are one line:
   an answer's MD5, or the traced run's exact counts.  Records of other
   builds in the checkout are compared and the differences printed, not
   checked: another build may change an answer or a count on purpose. *)
let remember ~name (entries : (string * string) list) =
  let build = Lazy.force build_id in
  let dir = Filename.concat run_dir build in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".txt") in
  let stored = if Sys.file_exists path then read_entries path else [] in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k stored with
      | Some v' when v' <> v -> problem "%s: %s differs from an earlier run of this build" name k
      | _ -> ())
    entries;
  append_entries path (List.filter (fun (k, _) -> not (List.mem_assoc k stored)) entries);
  Array.iter
    (fun other ->
      let theirs = Filename.concat (Filename.concat run_dir other) (name ^ ".txt") in
      if other <> build && Sys.file_exists theirs then begin
        let theirs = read_entries theirs in
        let differ =
          List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k theirs with
              | Some v' when v' <> v -> Some (k, v', v)
              | _ -> None)
            entries
        in
        note "%s: %d of %d keys differ from build %s" name (List.length differ)
          (List.length entries) other;
        List.iter
          (fun (k, was, now) ->
            match changed_fields was now with
            | [] -> note "  %s differs" k
            | l -> note "  %s: %s" k (String.concat ", " l))
          differ
      end)
    (Sys.readdir run_dir)

(* ----- daemon session helpers ----- *)

let ms_of_ns ns = float_of_int ns /. 1e6
let ratio_of a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Counters and histogram quantiles from the daemon's `metrics` op. *)
let daemon_metrics conn =
  let line = Client.call conn {|{"id":-1,"op":"metrics"}|} in
  match Obs.Jsonv.parse line with
  | Ok v -> Option.value (Obs.Jsonv.member "result" v) ~default:Obs.Jsonv.Null
  | Error e -> failwith ("metrics reply: " ^ e)

let counter m name =
  match Obs.Jsonv.member name m with Some (Obs.Jsonv.Num f) -> f | _ -> 0.

let hist_field m name field =
  match Obs.Jsonv.member name m with
  | Some h -> (
    match Obs.Jsonv.member field h with Some (Obs.Jsonv.Num f) -> f | _ -> nan)
  | None -> nan

(* Check one reply: an ok envelope whose result bytes equal the
   reference for its key (the first answer seen for that key in this
   run, normalized by [norm]).  Counts attempts and failures. *)
let check_reply ?(norm = Fun.id) refs (s : Load.sample) =
  incr attempted;
  match
    if s.Load.done_ns < 0 then None
    else Client.ok_result ~id:s.Load.id ~op:s.Load.req.Mix.op s.Load.reply
  with
  | None ->
    incr failed;
    problem "%s: not an ok reply: %s" s.Load.req.Mix.key
      (if s.Load.done_ns < 0 then "no answer in time"
       else String.sub s.Load.reply 0 (min 200 (String.length s.Load.reply)))
  | Some raw -> (
    let raw = norm raw in
    match Hashtbl.find_opt refs s.Load.req.Mix.key with
    | None -> Hashtbl.replace refs s.Load.req.Mix.key raw
    | Some r -> if r <> raw then problem "%s: answer bytes changed within the run" s.Load.req.Mix.key)

let answers_of refs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) refs [] |> List.sort compare

let latencies_ms samples =
  Array.of_list (List.map (fun (s : Load.sample) -> ms_of_ns (s.Load.done_ns - s.Load.due_ns)) samples)

(* Below 20 samples no percentile at or above the median has ten
   samples beyond it; the tail is then reported as the median. *)
let tail_of lat =
  match Stats.tail lat with
  | Some t -> t
  | None -> { Stats.pct = 50.; value = Stats.median lat; samples = Array.length lat }

(* Spawn the daemon and open [k] connections; returns the spawn time. *)
let start_daemon ~workload flags =
  let t0 = Unix.gettimeofday () in
  let d =
    Client.spawn ~exe:advisor_exe
      ~sock:(Filename.concat run_dir (workload ^ ".sock"))
      ~log:(Filename.concat run_dir (workload ^ "-daemon.log"))
      flags
  in
  (d, t0)

let connect_all d k =
  Array.init k (fun _ ->
      match Client.connect d.Client.sock with
      | Some c -> c
      | None -> failwith "cannot connect to the daemon")

(* Run [f] against a daemon, always stopping it.  The daemon has one
   worker domain: in every measured window at most one request needs a
   worker (the closed loops keep one in flight, served-hot's hits never
   leave the intake domain), and each further, idle domain has to join
   every stop-the-world collection on this 2-vCPU host, which made
   latency and throughput measurably less steady. *)
let with_daemon ~workload flags f =
  let d, t0 = start_daemon ~workload ("--workers" :: "1" :: flags) in
  Fun.protect ~finally:(fun () -> Client.stop d) @@ fun () ->
  Client.await_ready d;
  let conns = connect_all d 2 in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  f d t0 conns

(* Set-up on a fresh daemon is spawn, wait until it answers, then
   [warm conns]; on profile-exact and evaluate-batch it is light, so it
   is done [setups] times on fresh daemons and the median is reported.
   Set-up time is the daemon's CPU seconds from spawn to the end of the
   warm-up (its wall time is printed too).  The last daemon is kept and
   given to [f] with the two medians. *)
let setups = 3

let with_warmed_daemon ~workload flags warm f =
  let setup d t0 conns =
    warm conns;
    (Client.cpu_s d, Unix.gettimeofday () -. t0)
  in
  let earlier = List.init (setups - 1) (fun _ -> with_daemon ~workload flags setup) in
  with_daemon ~workload flags @@ fun d t0 conns ->
  let all = setup d t0 conns :: earlier in
  let median f = Stats.median (Array.of_list (List.map f all)) in
  f d conns ~setup_cpu_s:(median fst) ~setup_wall_s:(median snd)

let numbered first reqs = List.mapi (fun i r -> (first + i, r)) reqs

(* ----- daemon sessions ----- *)

(* What a session against the daemon leaves for reporting: the
   measured replies in send order, the daemon's metrics around the
   measured window, and the set-up figures. *)
type session = {
  samples : Load.sample list; (* measured window *)
  window_s : float;
  passes : int;
  setup_wall_s : float;
  setup_cpu_s : float; (* the daemon's CPU from spawn to the end of set-up *)
  cpu_s : float; (* the daemon's CPU over the measured window *)
  ops : int; (* requests, batches or answers in the measured window *)
  m0 : Obs.Jsonv.t; (* daemon metrics before / after the window *)
  m1 : Obs.Jsonv.t;
  rss_mb : float;
  refs : (string, string) Hashtbl.t; (* key -> result bytes *)
  throughput : float; (* requests, variants or answers per second *)
  sim_rate : float option; (* winst/s, when not over the window *)
  tail : Stats.tail option; (* when not over the window's samples *)
  max_rate : float option; (* served-hot's ladder *)
}

let profile_pass ~first order =
  List.mapi (fun i k -> (first + i, Mix.profile_request ~id:(first + i) ~op:"profile" k)) order

(* Whole passes on one connection, ending at the pass boundary nearest
   to [seconds] (at least one pass). *)
let closed_passes ~seconds conn make_pass =
  let t0 = Unix.gettimeofday () in
  let rec go p acc =
    let elapsed = Unix.gettimeofday () -. t0 in
    if p >= 1 && elapsed +. (elapsed /. float_of_int p /. 2.) >= seconds then
      (List.concat (List.rev acc), p)
    else go (p + 1) (Load.closed_loop [| conn |] (Load.of_lists [| make_pass p |]) :: acc)
  in
  let samples, passes = go 0 [] in
  (samples, passes, Unix.gettimeofday () -. t0)

(* profile-exact: a --no-cache daemon; set-up's warm-up is one request
   per arch of the lightest app.  On the kept daemon one untimed pass
   in the fixed key order then compiles every app and grows the heap
   (peak memory spread 3-9% across seeds after it, 14% without it); then
   whole passes on one connection. *)
let profile_warm = List.map (fun arch -> ("nn", arch)) Mix.archs

let profile_exact ~seed ~seconds =
  let order = Mix.profile_order seed in
  let npass = List.length order in
  let refs = Hashtbl.create 32 in
  let warm conns =
    List.iter (check_reply refs)
      (Load.closed_loop [| conns.(0) |] (Load.of_lists [| profile_pass ~first:1 profile_warm |]))
  in
  with_warmed_daemon ~workload:"profile-exact" [ "--no-cache" ] warm
  @@ fun d conns ~setup_cpu_s ~setup_wall_s ->
  List.iter (check_reply refs)
    (Load.closed_loop [| conns.(0) |]
       (Load.of_lists [| profile_pass ~first:(npass + 1) Mix.profile_keys |]));
  let m0 = daemon_metrics conns.(0) in
  let c0 = Client.cpu_s d in
  let samples, passes, window_s =
    closed_passes ~seconds conns.(0) (fun p ->
        profile_pass ~first:(((p + 2) * npass) + 1) order)
  in
  let cpu_s = Client.cpu_s d -. c0 in
  let m1 = daemon_metrics conns.(0) in
  List.iter (check_reply refs) samples;
  { samples; window_s; passes; setup_wall_s; setup_cpu_s; cpu_s; ops = List.length samples; m0; m1;
    rss_mb = Client.peak_rss_mb d; refs;
    throughput = float_of_int (List.length samples) /. window_s; sim_rate = None; tail = None;
    max_rate = None }

(* evaluate-batch: a cache-on daemon and whole passes on one
   connection.  Batch [b] of pass [p] is salted with (seed, p, b). *)
let evaluate_pass ~seed ~first ~pass order =
  List.mapi
    (fun i app ->
      let id = first + i in
      (id, Mix.evaluate_request ~id ~seed ~batch:((pass * 100) + i) app))
    order

let variants_per_pass order =
  List.fold_left
    (fun acc app -> acc + List.length (Tune.Sweep.specs_for (Workloads.Registry.find app)))
    0 order

let evaluate_batch ~seed ~seconds =
  let order = Mix.evaluate_order seed in
  let nb = List.length order in
  let refs = Hashtbl.create 8 in
  let norm = Mix.strip_digests in
  (* set-up's warm-up is one tournament of the lightest app; on the kept
     daemon one untimed pass in the fixed app order follows, as on
     profile-exact (peak memory spread 3% with it, 5-6% without).
     Batches go one at a time: two overlapping batches make the
     daemon's peak memory depend on which variants happen to coincide. *)
  let run_pass conns ~first ~pass apps =
    List.iter (check_reply ~norm refs)
      (Load.closed_loop [| conns.(0) |] (Load.of_lists [| evaluate_pass ~seed ~first ~pass apps |]))
  in
  with_warmed_daemon ~workload:"evaluate-batch" [] (fun conns -> run_pass conns ~first:1 ~pass:0 [ "nn" ])
  @@ fun d conns ~setup_cpu_s ~setup_wall_s ->
  run_pass conns ~first:(nb + 1) ~pass:1 Mix.evaluate_apps;
  let m0 = daemon_metrics conns.(0) in
  let c0 = Client.cpu_s d in
  let samples, passes, window_s =
    closed_passes ~seconds conns.(0) (fun p ->
        evaluate_pass ~seed ~first:(((p + 2) * nb) + 1) ~pass:(p + 2) order)
  in
  let cpu_s = Client.cpu_s d -. c0 in
  let m1 = daemon_metrics conns.(0) in
  List.iter (check_reply ~norm refs) samples;
  let variants = float_of_int (passes * variants_per_pass order) in
  { samples; window_s; passes; setup_wall_s; setup_cpu_s; cpu_s; ops = List.length samples; m0; m1;
    rss_mb = Client.peak_rss_mb d; refs;
    throughput = variants /. window_s; sim_rate = None; tail = None; max_rate = None }

(* served-hot: the tail limit, the reference rate and its window, how
   many windows in a row end the settle and its cap, and the fixed-rate
   ladder *)
let limit_ms = 1.0
let ref_rate = 8000.
let hot_window_s = 0.1
let settle_run = 2
let settle_cap_s = 10.
let ladder = [ 1000.; 2000.; 4000.; 8000.; 16000. ]

(* Open-loop traffic at [rate] for [seconds]; answers are checked and
   come back with their latencies from due time (unanswered ones count
   as failed and are missing).  Also says whether all were answered. *)
let open_step ?(keep = false) refs conns mix ~first ~rate ~seconds =
  let samples =
    Load.open_loop conns ~rate ~seconds ~first_id:!first (fun id ->
        let op, k = mix.(id mod Array.length mix) in
        Mix.profile_request ~id ~op k)
  in
  first := !first + Array.length samples;
  let before = !failed in
  Array.iter (check_reply refs) samples;
  (* replies are dropped once checked unless [keep]: a client heap
     holding every answer would pause the generator for its own GC *)
  let answered =
    List.filter_map
      (fun (s : Load.sample) ->
        if s.Load.done_ns < 0 then None else Some (if keep then s else { s with Load.reply = "" }))
      (Array.to_list samples)
  in
  (answered, !failed = before)

(* Both connections keep 16 requests in flight for [seconds]; returns
   the number of answers and answers per second. *)
let saturate refs conns mix ~first ~seconds =
  let stop_at = Obs.Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let t0 = Unix.gettimeofday () in
  let answers =
    Load.closed_loop ~depth:16 conns (fun _ ->
        if Obs.Clock.now_ns () >= stop_at then None
        else begin
          let id = !first in
          incr first;
          let op, k = mix.(id mod Array.length mix) in
          Some (id, Mix.profile_request ~id ~op k)
        end)
  in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter (check_reply refs) answers;
  (List.length answers, float_of_int (List.length answers) /. dt)

(* The pre-warm leaves the daemon a heap of profiling garbage whose
   collection stalls the intake domain for up to seconds.  The settle
   sends the reference rate in windows until [settle_run] windows in a
   row meet the tail limit, or until the cap.  Its length is part of
   set-up, so a worse stall shows in setup_s. *)
let settle refs conns mix ~first =
  let t0 = Unix.gettimeofday () in
  let rec go run acc =
    let answered, ok = open_step refs conns mix ~first ~rate:ref_rate ~seconds:hot_window_s in
    let lat = latencies_ms answered in
    let p50, tail =
      if lat = [||] then (infinity, infinity) else (Stats.median lat, (tail_of lat).Stats.value)
    in
    let run = if ok && tail <= limit_ms then run + 1 else 0 in
    let acc = (p50, tail) :: acc in
    if run >= settle_run || Unix.gettimeofday () -. t0 >= settle_cap_s then (run >= settle_run, acc)
    else go run acc
  in
  let met, windows = go 0 [] in
  note "served-hot settle: %.2f s, %d windows at %.0f/s, %s; worst window p50 %.3f ms, median window tail %.3f ms"
    (Unix.gettimeofday () -. t0) (List.length windows) ref_rate
    (if met then "ended on windows within the limit" else "cut at the cap")
    (List.fold_left (fun m (p, _) -> Float.max m p) 0. windows)
    (Stats.median (Array.of_list (List.map snd windows)))

let hot_warm = numbered 1 (List.mapi (fun i (op, k) -> Mix.profile_request ~id:(i + 1) ~op k) Mix.hot_keys)
let hot_first = 1_000

(* Set-up is the pre-warm of every key plus a settle period; the
   measured window is half the reference rate in 100 ms windows, a
   tenth the fixed-rate ladder, and the rest capacity with 2 x 16
   requests in flight.  The traced run's session only does a
   [seconds]-long reference window. *)
let served_hot ~seed ~seconds ~traced =
  let refs = Hashtbl.create 64 in
  with_daemon ~workload:"served-hot" [] @@ fun d t0 conns ->
  let m0 = daemon_metrics conns.(0) in
  let t_warm = Unix.gettimeofday () in
  List.iter (check_reply refs) (Load.closed_loop [| conns.(0) |] (Load.of_lists [| hot_warm |]));
  let warm_s = Unix.gettimeofday () -. t_warm in
  let m1 = daemon_metrics conns.(0) in
  let mix = Mix.hot_mix seed in
  let first = ref hot_first in
  settle refs conns mix ~first;
  let setup_wall_s = Unix.gettimeofday () -. t0 in
  let setup_cpu_s = Client.cpu_s d in
  let windows = if traced then 1 else max 1 (int_of_float (seconds *. 0.5 /. hot_window_s)) in
  let t_win = Unix.gettimeofday () and c0 = Client.cpu_s d in
  let per_window =
    List.init windows (fun _ ->
        fst
          (open_step ~keep:traced refs conns mix ~first ~rate:ref_rate
             ~seconds:(if traced then seconds else hot_window_s)))
  in
  let window_s = Unix.gettimeofday () -. t_win in
  let samples = List.concat per_window in
  let base =
    { samples; window_s; passes = windows; setup_wall_s; setup_cpu_s; cpu_s = 0.;
      ops = List.length samples; m0; m1; rss_mb = 0.; refs; throughput = 0.;
      (* the pre-warm is the only simulation this workload does *)
      sim_rate = Some ((counter m1 "sim.warp_insts" -. counter m0 "sim.warp_insts") /. warm_s);
      tail = None; max_rate = None }
  in
  let s =
    if traced then base
    else begin
      let tails = List.map (fun w -> tail_of (latencies_ms w)) per_window in
      let t1 = List.hd tails in
      note "served-hot reference rate %.0f/s: %d windows of %.1f s, each tail p%.2f of %d samples"
        ref_rate windows hot_window_s t1.Stats.pct t1.Stats.samples;
      let ladder_answers = ref 0 in
      let max_rate =
        let step_s = seconds *. 0.1 /. float_of_int (List.length ladder) in
        List.fold_left
          (fun best rate ->
            let answered, ok = open_step refs conns mix ~first ~rate ~seconds:step_s in
            ladder_answers := !ladder_answers + List.length answered;
            let lat = latencies_ms answered in
            let late = Array.of_list (List.map (fun (s : Load.sample) -> ms_of_ns s.Load.gap_ns) answered) in
            let t = tail_of lat in
            let meets =
              ok && t.Stats.value <= limit_ms && not (Stats.backlog_growing ~limit:limit_ms lat)
            in
            note "served-hot %6.0f/s: p50 %.3f ms, tail p%.2f %.3f ms, generator late tail %.3f ms -> %s"
              rate (Stats.median lat) t.Stats.pct t.Stats.value (tail_of late).Stats.value
              (if meets then "meets the 1 ms limit" else "misses the 1 ms limit");
            if meets then rate else best)
          0. ladder
      in
      (* capacity in half-second slices; the median slice rate *)
      let slices = max 1 (int_of_float (seconds *. 0.4 /. 0.5)) in
      let slice = List.init slices (fun _ -> saturate refs conns mix ~first ~seconds:0.5) in
      let capacity = Stats.median (Array.of_list (List.map snd slice)) in
      note "served-hot capacity: median %.0f answers/s over %d half-second slices with 2 x 16 in flight"
        capacity slices;
      let tail = Stats.median (Array.of_list (List.map (fun t -> t.Stats.value) tails)) in
      { base with
        ops = base.ops + !ladder_answers + List.fold_left (fun n (a, _) -> n + a) 0 slice;
        throughput = capacity;
        tail = Some { t1 with Stats.value = tail };
        max_rate = Some max_rate }
    end
  in
  { s with cpu_s = Client.cpu_s d -. c0; rss_mb = Client.peak_rss_mb d }

(* ----- end-to-end report ----- *)

let end_to_end workload (s : session) =
  let lat = latencies_ms s.samples in
  let tail, over =
    match s.tail with
    | Some t -> (t, " (median over the windows)")
    | None -> (tail_of lat, "")
  in
  note "%s: %d measured samples in %.2f s (%d passes or windows)" workload
    (List.length s.samples) s.window_s s.passes;
  note "%s latency: p50 %.3f ms over %d samples, tail p%.2f %.3f ms over %d samples%s" workload
    (Stats.median lat) (Array.length lat) tail.Stats.pct tail.Stats.value tail.Stats.samples over;
  (* Gated: CPU time the daemon spends, per operation and in set-up,
     and its peak memory.  The CPU figures are the scheduler's run time
     of the daemon's threads, so time they wait for a CPU while other
     programs use the host's few cores is left out; the wall-clock
     latency and throughput below include it, and spread too much from
     run to run on a shared host to gate. *)
  metric "cpu_ms_per_op" "ms" (s.cpu_s *. 1e3 /. float_of_int (max 1 s.ops));
  metric "setup_s" "s" s.setup_cpu_s;
  metric "peak_rss_mb" "MB" s.rss_mb;
  note "%s: daemon CPU %.3f s over %d operations in the window; set-up %.3f s CPU, %.3f s wall"
    workload s.cpu_s s.ops s.setup_cpu_s s.setup_wall_s;
  (* named in the benchmark doc, printed but not in the JSON object;
     failures are the JSON's attempted/failed fields; the last two are
     workload-specific *)
  note "latency_ms_p50 %.6g ms" (Stats.median lat);
  note "latency_ms_tail %.6g ms" tail.Stats.value;
  note "throughput_per_s %.6g 1/s" s.throughput;
  note "sim_winst_per_s %.0f winst/s"
    (match s.sim_rate with
    | Some r -> r
    | None -> (counter s.m1 "sim.warp_insts" -. counter s.m0 "sim.warp_insts") /. s.window_s);
  note "failed_frac %.6f ratio (%d of %d)" (ratio_of !failed !attempted) !failed !attempted;
  Option.iter (note "max_rate_rps %.0f 1/s") s.max_rate;
  if workload = "evaluate-batch" then note "variants_per_s %.4f 1/s" s.throughput

(* ----- the traced run ----- *)

(* The layers the served path itself runs for one request of each
   workload (after warm-up); serve.self_ms is the served latency minus
   these children of the replayed request. *)
let served_path = function
  | "profile-exact" ->
    [ "serve.parse"; "serve.validate"; "gpusim.profiled"; "analysis.report"; "analysis.json_encode" ]
  | "evaluate-batch" ->
    [ "serve.parse"; "serve.validate"; "serve.cachekey"; "tune.batch"; "analysis.json_encode" ]
  | _ -> [ "serve.parse"; "serve.validate"; "serve.cachekey"; "serve.rescache_find" ]

(* Cost of recording one span, timed on a throwaway recorder. *)
let span_cost_ns () =
  let probe = Spans.create () in
  let n = 100_000 in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to n do Spans.with_span probe "x" (fun () -> ()) done;
  float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int n

let traced_run ~workload ~seed =
  (* 1. an untraced daemon session: the bytes served for the inputs
     replayed below, their latencies, and the daemon's own metrics *)
  let s, cached =
    match workload with
    | "profile-exact" -> (profile_exact ~seed ~seconds:0., false)
    | "evaluate-batch" -> (evaluate_batch ~seed ~seconds:0., true)
    | _ -> (served_hot ~seed ~seconds:0.5 ~traced:true, true)
  in
  (* the measured requests, after the pre-warm on served-hot *)
  let inputs =
    (if workload = "served-hot" then hot_warm else [])
    @ List.map (fun (x : Load.sample) -> (x.Load.id, x.Load.req)) s.samples
  in
  let served = Hashtbl.create 64 in
  List.iter
    (fun (x : Load.sample) ->
      match Client.ok_result ~id:x.Load.id ~op:x.Load.req.Mix.op x.Load.reply with
      | Some raw -> Hashtbl.replace served x.Load.id raw
      | None -> ())
    s.samples;
  (* 2. the replay, spans on *)
  let sp = Spans.create () in
  let r = Replay.create sp in
  let t0 = Obs.Clock.now_ns () in
  let replayed =
    List.map
      (fun (id, (req : Mix.request)) ->
        Spans.set_request sp id;
        let bytes =
          Spans.with_span sp "request" (fun () ->
              if req.Mix.op = "evaluate" then Replay.evaluate_request r req.Mix.line
              else Replay.profile_request r ~cached req.Mix.line)
        in
        (id, req, bytes))
      inputs
  in
  let replay_ns = Obs.Clock.now_ns () - t0 in
  let trace_file = Filename.concat run_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  Spans.write_chrome sp trace_file;
  note "%s: replayed %d requests in %.2f s; %d spans written to %s" workload
    (List.length replayed) (float_of_int replay_ns /. 1e9) (Spans.count sp) trace_file;
  (* 3. the replay answers exactly what the daemon served *)
  let norm = if workload = "evaluate-batch" then Mix.strip_digests else Fun.id in
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (id, (req : Mix.request), bytes) ->
      let key = req.Mix.key in
      (* the daemon's bytes for this very request, else the first it
         served for the key (kept normalized) *)
      let expected, mine =
        match Hashtbl.find_opt served id with
        | Some raw -> (Some raw, bytes)
        | None -> (Hashtbl.find_opt s.refs key, norm bytes)
      in
      if expected <> None && expected <> Some mine then
        problem "%s: replayed bytes differ from the daemon's" key;
      Hashtbl.replace refs key (norm bytes))
    replayed;
  (* 4. exact counts per (app, arch), remembered across runs *)
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) r.Replay.per_key []) in
  let lines =
    List.map (fun k -> (k, Replay.counts_line (Hashtbl.find r.Replay.per_key k))) keys
  in
  List.iter
    (fun (k, l) -> note "counts %s %s %s digest=%s" workload k l (Digest.to_hex (Digest.string l)))
    lines;
  remember ~name:("counts-" ^ workload) lines;
  (* 5. per-layer metrics *)
  let tot = Spans.totals_by_name sp and self = Spans.totals_by_name ~self:true sp in
  let calls = Hashtbl.create 32 in
  List.iter
    (fun (x : Spans.span) ->
      Hashtbl.replace calls x.Spans.name (1 + Option.value (Hashtbl.find_opt calls x.Spans.name) ~default:0))
    (Spans.spans sp);
  let ns name = Option.value (Hashtbl.find_opt tot name) ~default:0 in
  let ms name = float_of_int (ns name) /. 1e6 in
  let n_calls name = Option.value (Hashtbl.find_opt calls name) ~default:0 in
  let us_per_call name = if n_calls name = 0 then nan else float_of_int (ns name) /. 1e3 /. float_of_int (n_calls name) in
  let sim_of kind =
    List.fold_left
      (fun (w, n) (_, (nw, nn), (pw, pn)) -> if kind = "native" then (w + nw, n + nn) else (w + pw, n + pn))
      (0, 0) (Replay.sim_split r)
  in
  let per_winst (w, n) = if w = 0 then nan else float_of_int n /. float_of_int w in
  let nat = sim_of "native" and prof = sim_of "profiled" in
  (* serve.self_ms: per request, the served latency minus the replayed
     served-path children; the median over the measured requests *)
  let path = served_path workload in
  let req_span = Hashtbl.create 64 in
  List.iter (fun (x : Spans.span) -> if x.Spans.name = "request" then Hashtbl.replace req_span x.Spans.id x.Spans.request) (Spans.spans sp);
  let children = Hashtbl.create 64 in
  List.iter
    (fun (x : Spans.span) ->
      match Hashtbl.find_opt req_span x.Spans.parent with
      | Some rid when List.mem x.Spans.name path ->
        Hashtbl.replace children rid (Spans.dur x + Option.value (Hashtbl.find_opt children rid) ~default:0)
      | _ -> ())
    (Spans.spans sp);
  let measured = List.filter (fun (x : Load.sample) -> Hashtbl.mem served x.Load.id) s.samples in
  let self_ms =
    Array.of_list
      (List.map
         (fun (x : Load.sample) ->
           ms_of_ns
             (x.Load.done_ns - x.Load.due_ns
             - Option.value (Hashtbl.find_opt children x.Load.id) ~default:0))
         measured)
  in
  let serve_self = Stats.median self_ms in
  let late = Array.of_list (List.map (fun (x : Load.sample) -> ms_of_ns x.Load.gap_ns) s.samples) in
  let overhead = float_of_int (Spans.count sp) *. span_cost_ns () /. float_of_int replay_ns in
  let c = Replay.count_metrics r.Replay.total in
  List.iter (fun (name, unit, v) -> metric name unit v)
    ([ ("gpusim.sim_ms", "ms", ms "gpusim.native" +. ms "gpusim.profiled");
       ("gpusim.ns_per_winst", "ns", per_winst (fst nat + fst prof, snd nat + snd prof));
       ("gpusim.profiled_ns_per_winst", "ns", per_winst prof) ]
    @ List.map
        (fun (k, v) -> (k, (if k = "gpusim.ipc" || String.ends_with ~suffix:"ratio" k then "ratio" else "count"), v))
        c
    @ [ ("analysis.mem_divergence_ms", "ms", ms "analysis.mem_divergence");
        ("analysis.branch_divergence_ms", "ms", ms "analysis.branch_divergence");
        ("analysis.json_encode_ms", "ms", ms "analysis.json_encode");
        ("analysis.json_bytes", "bytes", float_of_int r.Replay.json_bytes);
        ("minicuda.compile_ms", "ms", ms "minicuda.compile");
        ("passes.instrument_ms", "ms", ms "passes.instrument");
        ("passes.hooks", "count", float_of_int r.Replay.hooks);
        ("ptx.codegen_ms", "ms", ms "ptx.codegen");
        ("ptx.decode_ms", "ms", ms "ptx.decode");
        ("ptx.insts", "count", float_of_int r.Replay.insts);
        ("serve.parse_us", "us", us_per_call "serve.parse");
        ("serve.validate_us", "us", us_per_call "serve.validate");
        ("serve.self_ms", "ms", serve_self);
        ("loadgen.late_ms_tail", "ms", (tail_of late).Stats.value);
        ("bench.trace_overhead_frac", "ratio", overhead) ]);
  (* the rest of the named layer metrics exist on some workloads only *)
  let only name unit v =
    if Float.is_nan v then note "%s n/a on %s" name workload else note "%s %.6g %s" name v unit
  in
  let if_called span v = if n_calls span = 0 then nan else v in
  let hits = counter s.m1 "advisor.compile_cache.hits" -. counter s.m0 "advisor.compile_cache.hits" in
  let misses = counter s.m1 "advisor.compile_cache.misses" -. counter s.m0 "advisor.compile_cache.misses" in
  only "gpusim.native_ns_per_winst" "ns" (per_winst nat);
  only "profiler.overhead_x" "x" (if snd nat = 0 then nan else float_of_int (snd prof) /. float_of_int (snd nat));
  only "analysis.reuse_distance_ms" "ms" (if_called "analysis.reuse_distance" (ms "analysis.reuse_distance"));
  only "analysis.report_ms" "ms" (if_called "analysis.report" (ms "analysis.report"));
  only "analysis.race_ms" "ms" (if_called "analysis.race" (ms "analysis.race"));
  only "passes.check_static_ms" "ms" (if_called "passes.check_static" (ms "passes.check_static"));
  only "passes.estimate_ms" "ms" (if_called "passes.estimate" (ms "passes.estimate"));
  only "core.compile_cache_hit_ratio" "ratio (daemon, measured window)"
    (if hits +. misses = 0. then nan else hits /. (hits +. misses));
  only "tune.batch_ms" "ms" (if_called "tune.batch" (ms "tune.batch"));
  only "tune.self_ms" "ms"
    (if_called "tune.batch" (float_of_int (Option.value (Hashtbl.find_opt self "tune.batch") ~default:0) /. 1e6));
  only "serve.cachekey_us" "us" (us_per_call "serve.cachekey");
  only "serve.rescache_find_us" "us" (us_per_call "serve.rescache_find");
  only "serve.rescache_store_us" "us" (us_per_call "serve.rescache_store");
  only "serve.cache_hit_ratio" "ratio"
    (if r.Replay.finds = 0 then nan else float_of_int r.Replay.find_hits /. float_of_int r.Replay.finds);
  only "serve.queue_wait_ms_p50" "ms (daemon log2 histogram)"
    (hist_field s.m1 "serve.request.wait_ns" "p50" /. 1e6);
  List.iter
    (fun (app, (nw, nn), (pw, pn)) ->
      note "per-app %s: native %d winst %.1f ns/winst, profiled %d winst %.1f ns/winst" app nw
        (per_winst (nw, nn)) pw (per_winst (pw, pn)))
    (Replay.sim_split r);
  refs

(* ----- main ----- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME profile-exact | evaluate-batch | served-hot");
      ("--seed", Arg.Set_int seed, "N workload seed (request order, salts)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer replay (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists advisor_exe) then begin
    prerr_endline ("perfbench: " ^ advisor_exe ^ " is missing; run perfbench/run.sh");
    exit 2
  end;
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a signal unwinds the run, so the daemon is stopped on the way out *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> failwith "stopped by a signal")))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let calib0 = calibrate () in
  let seconds = float_of_int !seconds in
  let refs =
    match (!workload, !trace) with
    | "profile-exact", 0 ->
      let s = profile_exact ~seed:!seed ~seconds in
      end_to_end !workload s;
      s.refs
    | "evaluate-batch", 0 ->
      let s = evaluate_batch ~seed:!seed ~seconds in
      end_to_end !workload s;
      s.refs
    | "served-hot", 0 ->
      let s = served_hot ~seed:!seed ~seconds ~traced:false in
      end_to_end !workload s;
      s.refs
    | ("profile-exact" | "evaluate-batch" | "served-hot"), 1 -> traced_run ~workload:!workload ~seed:!seed
    | w, _ ->
      prerr_endline ("perfbench: unknown workload or trace flag: " ^ w);
      exit 2
  in
  remember ~name:("answers-" ^ !workload)
    (List.map (fun (k, v) -> (k, Digest.to_hex (Digest.string v))) (answers_of refs));
  let calib1 = calibrate () in
  note "host.calib_ms start %.3f end %.3f" calib0 calib1;
  if !trace = 1 then metric "host.calib_ms" "ms" ((calib0 +. calib1) /. 2.);
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then problem "metric %s is not a number" name)
    !metrics;
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  let correct = !problems = [] in
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
        Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name v unit)
      !metrics
  in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct
    (max 1 !attempted) !failed (String.concat "," ms);
  print_newline ();
  exit (if correct then 0 else 1)
