(* Metrics snapshot <-> JSON encodings of the `metrics` and
   `metrics_raw` ops.

   Two shapes:
   - [snapshot_json]: the flat, human-oriented `metrics` result —
     counters as ints, gauges as floats, histograms as objects with
     count/sum/max/mean plus derived p50/p95/p99 and the raw log2
     buckets.
   - [raw_json]/[of_raw]: a typed, lossless round-trip that `advisor
     top` polls.  The flat shape cannot be decoded back (ints and
     floats are indistinguishable to the validator), so a client that
     needs typed values reads this explicit form instead. *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv
module Metrics = Obs.Metrics

let histogram_json (h : Metrics.histogram_snapshot) =
  Json.Obj
    [ ("count", Json.Int h.count);
      ("sum", Json.Int h.sum);
      ("max", Json.Int h.max_value);
      ("mean", Json.Float h.mean);
      ("p50", Json.Int (Metrics.percentile h 0.50));
      ("p95", Json.Int (Metrics.percentile h 0.95));
      ("p99", Json.Int (Metrics.percentile h 0.99));
      ( "buckets",
        Json.Obj
          (List.map
             (fun (b, c) -> (Metrics.bucket_label b, Json.Int c))
             h.filled) ) ]

(* The flat `metrics` result: one field per instrument, sorted by name
   (snapshots are pre-sorted). *)
let snapshot_json snap =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let value =
           match v with
           | Metrics.Counter i -> Json.Int i
           | Metrics.Gauge f -> Json.Float f
           | Metrics.Histogram h -> histogram_json h
         in
         (name, value))
       snap)

(* Typed shape: {"counters":{..}, "gauges":{..}, "histograms":{name:
   {"count":..,"sum":..,"max":..,"buckets":{"<bucket index>":count}}}} *)
let raw_json snap =
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match v with
        | Metrics.Counter i -> ((name, Json.Int i) :: cs, gs, hs)
        | Metrics.Gauge f -> (cs, (name, Json.Float f) :: gs, hs)
        | Metrics.Histogram h ->
          let hj =
            Json.Obj
              [ ("count", Json.Int h.count);
                ("sum", Json.Int h.sum);
                ("max", Json.Int h.max_value);
                ( "buckets",
                  Json.Obj
                    (List.map
                       (fun (b, c) -> (string_of_int b, Json.Int c))
                       h.filled) ) ]
          in
          (cs, gs, (name, hj) :: hs))
      ([], [], []) snap
  in
  Json.Obj
    [ ("counters", Json.Obj (List.rev counters));
      ("gauges", Json.Obj (List.rev gauges));
      ("histograms", Json.Obj (List.rev hists)) ]

(* Decode a [raw_json] result back into a snapshot.  Lenient: missing
   sections or malformed entries are skipped (a daemon of another
   version must not sink the dashboard), so the result holds whatever
   decoded. *)
let of_raw (v : Jsonv.t) : (string * Metrics.value) list =
  let obj_fields k =
    match Jsonv.member k v with Some (Jsonv.Obj fs) -> fs | _ -> []
  in
  let int_of = function
    | Jsonv.Num f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None
  in
  let counters =
    List.filter_map
      (fun (name, x) ->
        match int_of x with
        | Some i -> Some (name, Metrics.Counter i)
        | None -> None)
      (obj_fields "counters")
  in
  let gauges =
    List.filter_map
      (fun (name, x) ->
        match Jsonv.to_float_opt x with
        | Some f -> Some (name, Metrics.Gauge f)
        | None -> None)
      (obj_fields "gauges")
  in
  let hists =
    List.filter_map
      (fun (name, x) ->
        let mem k = Option.bind (Jsonv.member k x) int_of in
        match (mem "count", mem "sum", mem "max") with
        | Some count, Some sum, Some max_value ->
          let filled =
            (match Jsonv.member "buckets" x with
            | Some (Jsonv.Obj bs) ->
              List.filter_map
                (fun (bk, bc) ->
                  match (int_of_string_opt bk, int_of bc) with
                  | Some b, Some c
                    when b >= 0 && b < Metrics.num_buckets && c > 0 ->
                    Some (b, c)
                  | _ -> None)
                bs
            | _ -> [])
            |> List.sort compare
          in
          Some
            ( name,
              Metrics.Histogram
                {
                  Metrics.count;
                  sum;
                  max_value;
                  mean =
                    (if count = 0 then 0.
                     else float_of_int sum /. float_of_int count);
                  filled;
                } )
        | _ -> None)
      (obj_fields "histograms")
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (counters @ gauges @ hists)
