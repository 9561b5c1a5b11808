(* Reuse-distance analysis (Section 4.2-(A)).

   Definitions follow the paper: the trace is regrouped by CTA; within a
   CTA, the reuse distance of a use is the number of distinct elements
   accessed between it and the previous use of the same element.
   Because the GPU L1 is write-evict / write-no-allocate, a write to an
   address restarts its counting: the pending forward reuse of the old
   value is recorded as infinite, mirroring the paper's definition of
   the infinity bucket ("never reused during execution or before the
   next write to the address").

   Two models are offered: memory-element based (granularity = access
   width) and cache-line based. *)

type granularity = Element | Cache_line of int

(* Histogram buckets of Figure 4. *)
type bucket = B0 | B1_2 | B3_8 | B9_32 | B33_128 | B129_512 | B_gt512 | B_inf

let buckets = [ B0; B1_2; B3_8; B9_32; B33_128; B129_512; B_gt512; B_inf ]

(* Bucket index of a finite distance, in [buckets] order; [inf_index]
   is the infinity bucket. *)
let bucket_index d =
  if d = 0 then 0
  else if d <= 2 then 1
  else if d <= 8 then 2
  else if d <= 32 then 3
  else if d <= 128 then 4
  else if d <= 512 then 5
  else 6

let inf_index = 7
let bucket_of_distance d = List.nth buckets (bucket_index d)

let bucket_label = function
  | B0 -> "0"
  | B1_2 -> "1-2"
  | B3_8 -> "3-8"
  | B9_32 -> "9-32"
  | B33_128 -> "33-128"
  | B129_512 -> "129-512"
  | B_gt512 -> ">512"
  | B_inf -> "inf"

type result = {
  granularity : granularity;
  samples : int; (* total use samples (finite + infinite) *)
  histogram : (bucket * int) list;
  finite_reuses : int;
  infinite_reuses : int; (* streaming / no-reuse accesses *)
  mean_finite_distance : float; (* R.D. input of the bypass model, Eq. 1 *)
  max_finite_distance : int;
}

let fraction result bucket =
  if result.samples = 0 then 0.
  else
    float_of_int (List.assoc bucket result.histogram) /. float_of_int result.samples

let no_reuse_fraction result =
  if result.samples = 0 then 0.
  else float_of_int result.infinite_reuses /. float_of_int result.samples

(* The trace's lane accesses regrouped by CTA with a counting sort over
   the CTA column: [stream] holds [elem * 2 lor is_write] per lane
   access, CTA after CTA, each in execution order.  CTA [lo + s], with
   [lo] the smallest CTA id that accessed memory, is the slice
   [starts.(s), starts.(s + 1)); CTA ids are a launch's dense linear
   ids, so the id range is at most the grid. *)
let group_by_cta ~granularity (tr : Profiler.Tracebuf.t) =
  let n = Profiler.Tracebuf.length tr in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    if Profiler.Tracebuf.acc_len tr i > 0 then begin
      let c = Profiler.Tracebuf.cta tr i in
      if c < !lo then lo := c;
      if c > !hi then hi := c
    end
  done;
  let nslots = if !hi < !lo then 0 else !hi - !lo + 1 in
  let starts = Array.make (nslots + 1) 0 in
  for i = 0 to n - 1 do
    let len = Profiler.Tracebuf.acc_len tr i in
    if len > 0 then begin
      let s = Profiler.Tracebuf.cta tr i - !lo + 1 in
      starts.(s) <- starts.(s) + len
    end
  done;
  for s = 1 to nslots do
    starts.(s) <- starts.(s) + starts.(s - 1)
  done;
  let stream = Array.make starts.(nslots) 0 in
  let fill = Array.sub starts 0 nslots in
  let arena = Profiler.Tracebuf.addr_arena tr in
  for i = 0 to n - 1 do
    let len = Profiler.Tracebuf.acc_len tr i in
    if len > 0 then begin
      let s = Profiler.Tracebuf.cta tr i - !lo in
      let is_write =
        if Profiler.Tracebuf.kind tr i = Passes.Hooks.mem_kind_store then 1 else 0
      in
      let div =
        match granularity with
        | Element -> max 1 (Profiler.Tracebuf.bits tr i / 8)
        | Cache_line line -> line
      in
      let off = Profiler.Tracebuf.acc_off tr i in
      let k = fill.(s) in
      for j = 0 to len - 1 do
        stream.(k + j) <- ((arena.(off + j) / div) lsl 1) lor is_write
      done;
      fill.(s) <- k + len
    end
  done;
  (stream, starts)

(* Last-use table: int keys, open addressing with linear probing.  Slot
   [s] maps element [keys.(s)] to [vals.(s)], the stream position (1 +
   index into the grouped stream) of its pending use, negated once a
   write killed that use.  Positions only grow, so a slot whose
   [abs vals.(s)] is at most the current CTA's [base] belongs to an
   earlier CTA and counts as free: moving to the next CTA clears
   nothing, and within one CTA an occupied slot never frees (a kill
   keeps the key), so every probe chain stays intact. *)
type last_use = {
  mutable keys : int array;
  mutable vals : int array;
  mutable bits : int; (* log2 of the capacity *)
  mutable used : int; (* slots occupied by the current CTA *)
}

let create_last_use () =
  { keys = Array.make 1024 0; vals = Array.make 1024 0; bits = 10; used = 0 }

(* Fibonacci hashing: the top [bits] bits of the product. *)
let[@inline] home t key = (key * 0x3e3779b97f4a7c15) lsr (63 - t.bits)

(* Slot of [key], or the free slot where it would go. *)
let probe t ~base key =
  let mask = (1 lsl t.bits) - 1 in
  let s = ref (home t key) in
  while abs (Array.unsafe_get t.vals !s) > base && Array.unsafe_get t.keys !s <> key do
    s := (!s + 1) land mask
  done;
  !s

(* Double the capacity, keeping the current CTA's slots. *)
let grow t ~base =
  let keys = t.keys and vals = t.vals in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) 0;
  t.vals <- Array.make (1 lsl t.bits) 0;
  Array.iteri
    (fun s v ->
      if abs v > base then begin
        let s' = probe t ~base keys.(s) in
        t.keys.(s') <- keys.(s);
        t.vals.(s') <- v
      end)
    vals

(* Analyze the packed trace of one kernel instance (in execution
   order), regrouped per CTA as in the paper.  The CTA streams are one
   counting-sorted int array; no per-event record is decoded and no
   polymorphic hash runs per access. *)
let of_trace ?(granularity = Element) (tr : Profiler.Tracebuf.t) =
  let stream, starts = group_by_cta ~granularity tr in
  let hist = Array.make (inf_index + 1) 0 in
  let finite = ref 0 and sum = ref 0 and maxd = ref 0 in
  let bit = Fenwick.create 0 in
  let last = create_last_use () in
  for s = 0 to Array.length starts - 2 do
    let base = starts.(s) and stop = starts.(s + 1) in
    if stop > base then begin
      Fenwick.reset bit (stop - base);
      last.used <- 0;
      (* uses still pending, never reused if the CTA ends now *)
      let live = ref 0 in
      for i = base to stop - 1 do
        let packed = stream.(i) in
        let elem = packed asr 1 in
        let pos = i + 1 in
        let slot = probe last ~base elem in
        let v = last.vals.(slot) in
        if packed land 1 = 1 then begin
          (* write-evict: the pending forward reuse of the old value dies *)
          if v > base then begin
            hist.(inf_index) <- hist.(inf_index) + 1;
            decr live;
            Fenwick.add bit (v - base) (-1);
            last.vals.(slot) <- -v
          end
        end
        else begin
          if v > base then begin
            let d = Fenwick.between bit ~lo:(v - base) ~hi:(pos - base) in
            let b = bucket_index d in
            hist.(b) <- hist.(b) + 1;
            incr finite;
            sum := !sum + d;
            if d > !maxd then maxd := d;
            Fenwick.add bit (v - base) (-1);
            last.vals.(slot) <- pos
          end
          else begin
            incr live;
            last.vals.(slot) <- pos;
            if v >= -base then begin
              (* a free slot, not a killed key: claim it *)
              last.keys.(slot) <- elem;
              last.used <- last.used + 1;
              if 2 * last.used > 1 lsl last.bits then grow last ~base
            end
          end;
          Fenwick.add bit (pos - base) 1
        end
      done;
      (* accesses still pending at the end were never reused *)
      hist.(inf_index) <- hist.(inf_index) + !live
    end
  done;
  let infinite = hist.(inf_index) in
  {
    granularity;
    samples = !finite + infinite;
    histogram = List.mapi (fun i b -> (b, hist.(i))) buckets;
    finite_reuses = !finite;
    infinite_reuses = infinite;
    mean_finite_distance =
      (if !finite = 0 then 0. else float_of_int !sum /. float_of_int !finite);
    max_finite_distance = !maxd;
  }

let of_events ?granularity events =
  of_trace ?granularity (Profiler.Tracebuf.of_events events)

let of_instance ?granularity (instance : Profiler.Profile.instance) =
  of_trace ?granularity instance.trace

(* Merge results of independent kernel instances into the whole-
   application view of Figure 4 (reuse is per CTA per instance, so
   merging is summing histograms and weighting the means). *)
let merge = function
  | [] -> invalid_arg "Reuse_distance.merge: empty"
  | first :: _ as results ->
    let histogram =
      List.map
        (fun b ->
          (b, List.fold_left (fun acc r -> acc + List.assoc b r.histogram) 0 results))
        buckets
    in
    let finite = List.fold_left (fun acc r -> acc + r.finite_reuses) 0 results in
    let infinite = List.fold_left (fun acc r -> acc + r.infinite_reuses) 0 results in
    let weighted_sum =
      List.fold_left
        (fun acc r -> acc +. (r.mean_finite_distance *. float_of_int r.finite_reuses))
        0. results
    in
    {
      granularity = first.granularity;
      samples = finite + infinite;
      histogram;
      finite_reuses = finite;
      infinite_reuses = infinite;
      mean_finite_distance =
        (if finite = 0 then 0. else weighted_sum /. float_of_int finite);
      max_finite_distance =
        List.fold_left (fun acc r -> max acc r.max_finite_distance) 0 results;
    }

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (b, c) ->
      Format.fprintf fmt "%-8s %6.2f%% (%d)@ " (bucket_label b)
        (100. *. fraction r b) c)
    r.histogram;
  Format.fprintf fmt "mean finite RD: %.2f, samples: %d@]" r.mean_finite_distance
    r.samples
