(* Per-request NDJSON access log.

   One JSON object per finished request — op, answer tier, cache
   disposition, queue wait, run time, total latency and outcome —
   appended to a file and flushed per line so logs survive a killed
   daemon. *)

module Json = Analysis.Json

type t = { oc : out_channel; mutex : Mutex.t }

let m_lines = Obs.Metrics.counter "serve.access_log.lines"

let create ~path =
  { oc = open_out_gen [ Open_append; Open_creat ] 0o644 path; mutex = Mutex.create () }

let close t = Mutex.protect t.mutex (fun () -> close_out_noerr t.oc)

(* [outcome] is the response disposition ("ok", "failed", "timeout",
   "overloaded", ...); [cache] is "hit", "miss" or "" for uncacheable
   ops; [tier] is "static"/"exact" for profile-class ops, else "". *)
let log t ~id ~op ~app ~arch ~tier ~cache ~outcome ~wait_ns ~run_ns =
  Obs.Metrics.incr m_lines;
  let opt k v = match v with "" -> [] | s -> [ (k, Json.String s) ] in
  let line =
    Json.to_string
      (Json.Obj
         ([ ("ts", Json.Float (Unix.gettimeofday ())); ("id", id);
            ("op", Json.String op) ]
         @ opt "app" app @ opt "arch" arch @ opt "tier" tier
         @ opt "cache" cache
         @ [ ("outcome", Json.String outcome);
             ("wait_ns", Json.Int wait_ns);
             ("run_ns", Json.Int run_ns);
             ("total_ns", Json.Int (wait_ns + run_ns)) ]))
  in
  Mutex.protect t.mutex (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)
