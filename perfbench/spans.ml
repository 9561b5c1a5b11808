(* The traced run's span recorder.  Spans are taken in the benchmark's
   own code around each call into a layer, kept in memory, and written
   out as one Chrome trace when the run ends.  Every span carries the
   request it belongs to and the id of the span that caused it. *)

type span = {
  id : int;
  parent : int; (* -1 for a root span *)
  request : int; (* spans of one request share this id *)
  name : string; (* "<layer>.<what>", e.g. "gpusim.sim" *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable recorded : span list; (* newest first *)
  mutable next_id : int;
  mutable stack : int list; (* open spans, innermost first *)
  mutable request : int;
}

let create () = { recorded = []; next_id = 0; stack = []; request = 0 }

let now_ns () = Obs.Clock.now_ns ()
let set_request t r = t.request <- r

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.recorded <-
        { id; parent; request = t.request; name; start_ns; stop_ns }
        :: t.recorded)
    f

let spans t = List.rev t.recorded
let count t = t.next_id
let dur s = s.stop_ns - s.start_ns

(* Self time of every span, computed in one pass over the children. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_ns, s.stop_ns))
    t.recorded;
  List.map
    (fun s ->
      (s, Stats.self_ns ~start:s.start_ns ~stop:s.stop_ns (Hashtbl.find_all children s.id)))
    (spans t)

(* Sum of durations (or self times) per span name. *)
let totals_by_name ?(self = false) t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self_ns) ->
      let v = if self then self_ns else dur s in
      Hashtbl.replace tbl s.name
        (v + Option.value (Hashtbl.find_opt tbl s.name) ~default:0))
    (self_times t);
  tbl

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   thread per request so a request's layers nest visually. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name s.request
        (float_of_int s.start_ns /. 1e3)
        (float_of_int (dur s) /. 1e3)
        s.id s.parent)
    (spans t);
  output_string oc "]}\n"
