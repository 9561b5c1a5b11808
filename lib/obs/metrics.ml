(* Global metrics registry: counters, gauges and log-bucketed
   histograms, registered by name and snapshotted for `--metrics`
   dumps and the bench `--json` metrics section.

   Domain safety: instruments are interned under a mutex (registration
   is rare), and the instruments themselves update lock-free —
   counters and histogram cells are [Atomic.t], so [Core.Pool] workers
   report concurrently without coordination.  Gauges are last-write-
   wins by design.

   Histograms are log2-bucketed: bucket [b >= 1] holds values in
   [2^(b-1), 2^b - 1] and bucket 0 holds values <= 0, so 63 buckets
   cover the whole non-negative int range with ~2x resolution — enough
   for latency distributions without per-histogram configuration. *)

type counter = int Atomic.t

type gauge = float Atomic.t

let num_buckets = 63

type histogram = {
  buckets : int Atomic.t array; (* num_buckets cells *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t; (* monotonic max; meaningless when count = 0 *)
}

(* ----- bucket arithmetic (property-tested in test_obs.ml) ----- *)

let bucket_index v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (num_buckets - 1) (bits v 0)
  end

(* Inclusive bounds of bucket [b]: [bucket_lo b <= v <= bucket_hi b]
   iff [bucket_index v = b]. *)
let bucket_lo b =
  if b <= 0 then min_int else 1 lsl (b - 1)

let bucket_hi b =
  if b <= 0 then 0
  else if b >= num_buckets - 1 then max_int
  else (1 lsl b) - 1

let bucket_label b =
  if b <= 0 then "le_0" else Printf.sprintf "le_%d" (bucket_hi b)

(* ----- the registry ----- *)

type instrument =
  | Counter_i of counter
  | Gauge_i of gauge
  | Histogram_i of histogram
  | Probe_i of (unit -> float)

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let kind_name = function
  | Counter_i _ -> "counter"
  | Gauge_i _ -> "gauge"
  | Histogram_i _ -> "histogram"
  | Probe_i _ -> "probe"

(* Intern [name]: return the existing instrument or create one with
   [make].  Re-registering a name as a different kind is a bug. *)
let intern name make extract =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some inst -> (
        match extract inst with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name inst)))
      | None ->
        let inst = make () in
        Hashtbl.replace registry name inst;
        match extract inst with Some v -> v | None -> assert false)

let counter name =
  intern name
    (fun () -> Counter_i (Atomic.make 0))
    (function Counter_i c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value c = Atomic.get c

let gauge name =
  intern name
    (fun () -> Gauge_i (Atomic.make 0.))
    (function Gauge_i g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram name =
  intern name
    (fun () ->
      Histogram_i
        {
          buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make min_int;
        })
    (function Histogram_i h -> Some h | _ -> None)

let observe h v =
  Atomic.incr h.buckets.(bucket_index v);
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum v);
  let rec bump () =
    let m = Atomic.get h.h_max in
    if v <= m then () else if Atomic.compare_and_set h.h_max m v then () else bump ()
  in
  bump ()

(* A probe is an externally-owned statistic polled at snapshot time:
   pre-existing counters (compile memo table, decode cache) register a
   reader instead of migrating their storage. *)
let register_probe name f =
  Mutex.protect lock (fun () -> Hashtbl.replace registry name (Probe_i f))

(* ----- snapshots ----- *)

type histogram_snapshot = {
  count : int;
  sum : int;
  max_value : int; (* 0 when count = 0 *)
  mean : float;
  (* (bucket index, count) for every non-empty bucket, ascending *)
  filled : (int * int) list;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

let snapshot_histogram h =
  let count = Atomic.get h.h_count in
  let sum = Atomic.get h.h_sum in
  let filled = ref [] in
  for b = num_buckets - 1 downto 0 do
    let c = Atomic.get h.buckets.(b) in
    if c > 0 then filled := (b, c) :: !filled
  done;
  {
    count;
    sum;
    max_value = (if count = 0 then 0 else Atomic.get h.h_max);
    mean = (if count = 0 then 0. else float_of_int sum /. float_of_int count);
    filled = !filled;
  }

(* Every registered metric with its current value, sorted by name. *)
let snapshot () =
  let items =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) registry [])
  in
  items
  |> List.map (fun (name, inst) ->
         let v =
           match inst with
           | Counter_i c -> Counter (Atomic.get c)
           | Gauge_i g -> Gauge (Atomic.get g)
           | Histogram_i h -> Histogram (snapshot_histogram h)
           | Probe_i f -> Gauge (f ())
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ----- percentiles ----- *)

(* Upper-bound percentile estimate from the log2 buckets: the value is
   the inclusive upper bound of the smallest bucket whose cumulative
   count reaches q of the total, clamped to the observed max.  Monotone
   in q by construction (the cumulative threshold only grows), with at
   most 2x overestimate from the bucket width. *)
let percentile h q =
  if h.count = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let need = max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
    let rec find cum = function
      | [] -> h.max_value
      | (b, c) :: rest ->
        let cum = cum + c in
        if cum >= need then min (bucket_hi b) h.max_value else find cum rest
    in
    find 0 h.filled
  end

(* ----- Prometheus text exposition (version 0.0.4) ----- *)

(* Metric names sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
   become underscore-separated (serve.cache.hits -> serve_cache_hits).
   Histograms render as cumulative le-buckets with _sum/_count; probes
   render as gauges.  Line-by-line parseability is asserted in CI. *)
let prometheus_name s =
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9' && i > 0)
        || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  Bytes.to_string b

let prometheus_float f =
  if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_prometheus ?snap () =
  let snap = match snap with Some s -> s | None -> snapshot () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = prometheus_name name in
      match v with
      | Counter i ->
        Printf.bprintf buf "# TYPE %s counter\n%s %d\n" n n i
      | Gauge f ->
        Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" n n (prometheus_float f)
      | Histogram h ->
        Printf.bprintf buf "# TYPE %s histogram\n" n;
        let cum = ref 0 in
        List.iter
          (fun (b, c) ->
            cum := !cum + c;
            (* the top bucket's bound is max_int; +Inf below covers it *)
            if b < num_buckets - 1 then
              Printf.bprintf buf "%s_bucket{le=\"%d\"} %d\n" n (bucket_hi b)
                !cum)
          h.filled;
        Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" n h.count;
        Printf.bprintf buf "%s_sum %d\n%s_count %d\n" n h.sum n h.count)
    snap;
  Buffer.contents buf

(* Human-readable dump for `--metrics`. *)
let to_text () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== metrics ==\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter i -> Printf.bprintf buf "%-36s %d\n" name i
      | Gauge f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.bprintf buf "%-36s %.0f\n" name f
        else Printf.bprintf buf "%-36s %g\n" name f
      | Histogram h ->
        Printf.bprintf buf "%-36s count=%d sum=%d max=%d mean=%.1f\n" name h.count
          h.sum h.max_value h.mean;
        List.iter
          (fun (b, c) -> Printf.bprintf buf "  %-34s %d\n" (bucket_label b) c)
          h.filled)
    (snapshot ());
  Buffer.contents buf
