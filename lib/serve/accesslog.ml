(* Per-request NDJSON access log.

   One JSON object per finished request — op, answer tier, serving
   process, cache disposition, queue wait, run time, total latency and
   outcome — appended to a file and flushed per line so logs survive a
   killed daemon.  A sampling divisor keeps hot daemons affordable: with
   [sample = n] every n-th request is written (the first of each n);
   skipped lines are counted so the log's coverage is computable. *)

module Json = Analysis.Json

type t = {
  oc : out_channel;
  mutex : Mutex.t;
  sample : int; (* write every [sample]-th entry; >= 1 *)
  seq : int Atomic.t;
}

let m_lines = Obs.Metrics.counter "serve.access_log.lines"
let m_sampled_out = Obs.Metrics.counter "serve.access_log.sampled_out"

let create ~path ~sample =
  {
    oc = open_out_gen [ Open_append; Open_creat ] 0o644 path;
    mutex = Mutex.create ();
    sample = max 1 sample;
    seq = Atomic.make 0;
  }

let close t = Mutex.protect t.mutex (fun () -> close_out_noerr t.oc)

(* [outcome] is the response disposition ("ok", "failed", "timeout",
   "overloaded", ...); [cache] is "hit", "miss" or "" for uncacheable
   ops; [tier] is "static"/"exact" for profile-class ops, else "". *)
let log t ~proc ~id ~op ~app ~arch ~tier ~cache ~outcome ~wait_ns ~run_ns
    ?trace_id () =
  let n = Atomic.fetch_and_add t.seq 1 in
  if n mod t.sample <> 0 then Obs.Metrics.incr m_sampled_out
  else begin
    Obs.Metrics.incr m_lines;
    let opt k v = match v with "" -> [] | s -> [ (k, Json.String s) ] in
    let line =
      Json.to_string
        (Json.Obj
           ([ ("ts", Json.Float (Unix.gettimeofday ()));
              ("proc", Json.String proc);
              ("id", id);
              ("op", Json.String op) ]
           @ opt "app" app @ opt "arch" arch @ opt "tier" tier
           @ opt "cache" cache
           @ [ ("outcome", Json.String outcome);
               ("wait_ns", Json.Int wait_ns);
               ("run_ns", Json.Int run_ns);
               ("total_ns", Json.Int (wait_ns + run_ns)) ]
           @ opt "trace_id" (Option.value trace_id ~default:"")))
    in
    Mutex.protect t.mutex (fun () ->
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc)
  end
