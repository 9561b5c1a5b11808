(* The benchmark's own statistics: order statistics with an honest
   tail, open-loop due-time accounting, and span self time.  Pure
   functions over plain arrays and intervals, so the test suite can pin
   each rule on hand-made inputs. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Quantile [q] in [0, 1] of an already-sorted array, interpolating
   linearly between the two closest ranks. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* The tail: the highest percentile that still has at least [beyond]
   samples above it.  With [n] sorted samples that is the sample at
   0-based rank [n - beyond - 1], whose percentile is
   [100 (n - beyond) / n].  Fewer than [2 beyond] samples would put that
   rank below the median, so there is no tail to report. *)
type tail = { pct : float; value : float; samples : int }

let beyond = 10

let tail a =
  let n = Array.length a in
  if n < 2 * beyond then None
  else
    let s = sorted a in
    let rank = n - beyond - 1 in
    Some
      {
        pct = 100. *. float_of_int (n - beyond) /. float_of_int n;
        value = s.(rank);
        samples = n;
      }

(* ----- open-loop schedules ----- *)

(* Request [i] of an open loop at [rate] per second is due at
   [start_ns + i / rate], whether or not the generator managed to send
   it then.  Latency counts from the due time, so a stall is charged to
   every request it delayed; lateness is how far behind schedule the
   generator itself sent the request. *)
let due_ns ~start_ns ~rate i =
  start_ns + int_of_float (Float.round (float_of_int i *. 1e9 /. rate))

let latency_ns ~due_ns ~done_ns = done_ns - due_ns
let lateness_ns ~due_ns ~sent_ns = max 0 (sent_ns - due_ns)

(* A backlog grows when requests keep falling further behind: compare
   the median latency of the last quarter of a step with the first
   quarter.  [latencies] are in due order. *)
let backlog_growing ~limit a =
  let n = Array.length a in
  if n < 8 then false
  else
    let q = n / 4 in
    let first = median (Array.sub a 0 q) and last = median (Array.sub a (n - q) q) in
    last > limit && last > 2. *. first

(* ----- span self time ----- *)

(* Total length of the union of [intervals] (start, stop) clipped to
   [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* A span's self time: its duration minus the part of its interval its
   children cover (overlapping children count once). *)
let self_ns ~start ~stop children = stop - start - covered ~lo:start ~hi:stop children
