(* Nestable spans and counter samples recorded into per-domain buffers,
   exported as Chrome trace-event JSON (loadable in chrome://tracing or
   https://ui.perfetto.dev) or as a pretty text tree.

   Tracing is globally off by default and every recording entry point
   first reads one atomic flag, so the disabled path costs a load and a
   branch — nothing is allocated and no clock is read.  Hot loops that
   cannot afford even that (the simulator event loop) hoist the flag
   read out of the loop.

   Each domain appends to its own buffer (struct-of-arrays, grown
   geometrically up to [set_capacity]), so recording never takes a
   lock; the buffer is registered in a global list on the domain's
   first event, and the exporter snapshots that list under a mutex.
   Span begin/end pairs are produced only by [with_span], whose
   [Fun.protect] guarantees every recorded "B" event gets its "E" even
   on exceptions — matched pairs are structural, not best-effort.  When
   a buffer hits capacity new spans are dropped (and counted), but
   close events of already-recorded spans are still appended so the
   B/E matching survives truncation. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* ----- logical process / domain labels ----- *)

(* A serve daemon runs several domains (intake, workers).  Span records
   written to the sink below carry a logical process label so a merged
   trace can group work by role rather than by bare pid.  The
   process-wide label is set once at daemon startup ([set_proc_label]);
   a long-lived worker domain can override it for itself
   ([set_domain_label]).  Without either, the label is "pid-<pid>". *)
let proc_label = Atomic.make ""
let set_proc_label s = Atomic.set proc_label s

let domain_label_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_domain_label s = Domain.DLS.set domain_label_key (Some s)

let effective_label () =
  match Domain.DLS.get domain_label_key with
  | Some s -> s
  | None -> (
    match Atomic.get proc_label with
    | "" -> Printf.sprintf "pid-%d" (Unix.getpid ())
    | s -> s)

(* ----- distributed trace context ----- *)

(* A per-domain trace context carries the request's [trace_id] and the
   name of the innermost open span (the parent of the next span).  It
   is installed by [with_context] around request handling and read by
   [with_span] to emit one flat span record per completed span into the
   sink.  Contexts only matter when a sink is installed, so the common
   disabled path stays two atomic loads. *)
type ctx = { trace_id : string; parent : string }

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_trace_id () =
  match Domain.DLS.get ctx_key with Some c -> Some c.trace_id | None -> None

let current_context () = Domain.DLS.get ctx_key
let set_context c = Domain.DLS.set ctx_key c

(* One completed span, flattened for cross-process merging: the
   Chrome-style B/E pairing is an in-process convenience; processes
   exchange (trace, parent, name, start, duration) records instead. *)
type span_record = {
  sr_trace : string;
  sr_parent : string; (* "" at the root of this process's subtree *)
  sr_name : string;
  sr_cat : string;
  sr_start_ns : int;
  sr_dur_ns : int;
  sr_pid : int;
  sr_dom : int;
  sr_proc : string; (* logical process label, e.g. "serve/worker" *)
}

let sink : (span_record -> unit) option Atomic.t = Atomic.make None

let set_sink f = Atomic.set sink (Some f)
let clear_sink () = Atomic.set sink None
let sink_active () = Atomic.get sink <> None

(* Emit one span record directly, for a span measured by hand rather
   than by nesting [with_span] (a job's queue wait, a cache probe).  A
   no-op without a sink. *)
let record_span ~trace_id ?(parent = "") ?(cat = "") ~name ~start_ns ~dur_ns ()
    =
  match Atomic.get sink with
  | None -> ()
  | Some f ->
    f
      {
        sr_trace = trace_id;
        sr_parent = parent;
        sr_name = name;
        sr_cat = cat;
        sr_start_ns = start_ns;
        sr_dur_ns = dur_ns;
        sr_pid = Unix.getpid ();
        sr_dom = (Domain.self () :> int);
        sr_proc = effective_label ();
      }

(* Run [f] with [trace_id] installed as this domain's trace context;
   spans recorded inside land in the sink stamped with the id.
   [parent] names the caller's span in another process (from the
   request envelope's [parent_span]) so merged traces link across the
   process boundary. *)
let with_context ~trace_id ?(parent = "") f =
  let old = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key (Some { trace_id; parent });
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key old) f

(* Event kinds, Chrome "ph" phases: B(egin), E(nd), C(ounter),
   I(nstant). *)
type kind = Begin | End | Counter | Instant

type buf = {
  dom : int;
  mutable kinds : kind array;
  mutable names : string array;
  mutable cats : string array;
  mutable ts : int array; (* ns *)
  mutable values : float array; (* counter payloads *)
  mutable n : int;
  mutable dropped : int;
}

(* Hard cap on events per domain buffer; beyond it spans are dropped
   (counted in [dropped]) rather than growing without bound. *)
let capacity = Atomic.make 1_000_000
let set_capacity c = Atomic.set capacity (max 1024 c)

let buffers : buf list ref = ref []
let buffers_lock = Mutex.create ()

let new_buf () =
  let b =
    {
      dom = (Domain.self () :> int);
      kinds = Array.make 1024 Instant;
      names = Array.make 1024 "";
      cats = Array.make 1024 "";
      ts = Array.make 1024 0;
      values = Array.make 1024 0.;
      n = 0;
      dropped = 0;
    }
  in
  Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
  b

let key : buf Domain.DLS.key = Domain.DLS.new_key new_buf

let my_buf () = Domain.DLS.get key

let grow b =
  let cap = Array.length b.kinds in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.kinds <- extend b.kinds Instant;
  b.names <- extend b.names "";
  b.cats <- extend b.cats "";
  b.ts <- extend b.ts 0;
  b.values <- extend b.values 0.

(* Append one event; [force] bypasses the capacity check (used for the
   "E" of an already-recorded "B", bounded by the open-span depth). *)
let append b ~force kind name cat ts value =
  if (not force) && b.n >= Atomic.get capacity then begin
    b.dropped <- b.dropped + 1;
    false
  end
  else begin
    if b.n >= Array.length b.kinds then grow b;
    let i = b.n in
    b.kinds.(i) <- kind;
    b.names.(i) <- name;
    b.cats.(i) <- cat;
    b.ts.(i) <- ts;
    b.values.(i) <- value;
    b.n <- i + 1;
    true
  end

(* ----- recording API ----- *)

(* [with_span "compile" f] brackets [f] with a B/E pair on the calling
   domain's buffer; a no-op (two atomic loads) when both tracing and
   the span sink are off.  With a sink and a trace context installed,
   the completed span is additionally emitted as a flat record with the
   enclosing span as its parent. *)
let with_span ?(cat = "") name f =
  let enabled = Atomic.get enabled_flag in
  let ctx =
    match Atomic.get sink with None -> None | Some _ -> Domain.DLS.get ctx_key
  in
  if (not enabled) && ctx = None then f ()
  else begin
    let t0 = Clock.now_ns () in
    let b = if enabled then Some (my_buf ()) else None in
    let recorded =
      match b with
      | Some b -> append b ~force:false Begin name cat t0 0.
      | None -> false
    in
    (* Children opened inside [f] see this span as their parent. *)
    (match ctx with
    | Some c -> Domain.DLS.set ctx_key (Some { c with parent = name })
    | None -> ());
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        (match b with
        | Some b when recorded -> ignore (append b ~force:true End name cat t1 0.)
        | _ -> ());
        match ctx with
        | Some c ->
          Domain.DLS.set ctx_key ctx;
          record_span ~trace_id:c.trace_id ~parent:c.parent ~cat ~name
            ~start_ns:t0 ~dur_ns:(t1 - t0) ()
        | None -> ())
      f
  end

(* Counter sample: one point on a Chrome counter track ("C" event). *)
let counter ?(cat = "") name v =
  if Atomic.get enabled_flag then
    ignore (append (my_buf ()) ~force:false Counter name cat (Clock.now_ns ()) v)

let instant ?(cat = "") name =
  if Atomic.get enabled_flag then
    ignore (append (my_buf ()) ~force:false Instant name cat (Clock.now_ns ()) 0.)

(* Drop every recorded event (buffers stay registered). *)
let clear () =
  Mutex.protect buffers_lock (fun () ->
      List.iter
        (fun b ->
          b.n <- 0;
          b.dropped <- 0)
        !buffers)

let event_count () =
  Mutex.protect buffers_lock (fun () ->
      List.fold_left (fun acc b -> acc + b.n) 0 !buffers)

let dropped_count () =
  Mutex.protect buffers_lock (fun () ->
      List.fold_left (fun acc b -> acc + b.dropped) 0 !buffers)

(* ----- Chrome trace-event export ----- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ----- NDJSON span-record sink (`advisor serve --trace-dir`) ----- *)

(* Each daemon process appends its span records to its own
   [spans-<pid>.ndjson] under the directory; `advisor trace-merge`
   turns them into one Chrome trace afterwards.  One line per record,
   flushed immediately so records survive the daemon being killed;
   writes serialize on a mutex (a request emits a handful of spans, each
   tens of bytes). *)
let dir_sink_mutex = Mutex.create ()
let dir_sink_oc : out_channel option ref = ref None

let span_record_to_json r =
  Printf.sprintf
    "{\"trace\":\"%s\",\"parent\":\"%s\",\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"dom\":%d,\"proc\":\"%s\"}"
    (escape r.sr_trace) (escape r.sr_parent) (escape r.sr_name)
    (escape r.sr_cat) r.sr_start_ns r.sr_dur_ns r.sr_pid r.sr_dom
    (escape r.sr_proc)

let open_dir_sink dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat dir (Printf.sprintf "spans-%d.ndjson" (Unix.getpid ()))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Mutex.protect dir_sink_mutex (fun () -> dir_sink_oc := Some oc);
  set_sink (fun r ->
      Mutex.protect dir_sink_mutex (fun () ->
          match !dir_sink_oc with
          | Some oc ->
            output_string oc (span_record_to_json r);
            output_char oc '\n';
            flush oc
          | None -> ()))

let close_dir_sink () =
  clear_sink ();
  Mutex.protect dir_sink_mutex (fun () ->
      match !dir_sink_oc with
      | Some oc ->
        dir_sink_oc := None;
        close_out_noerr oc
      | None -> ())

let write_event out ~pid b i =
  let ph =
    match b.kinds.(i) with
    | Begin -> "B"
    | End -> "E"
    | Counter -> "C"
    | Instant -> "i"
  in
  (* Chrome wants microseconds; keep ns resolution as fractional us *)
  let ts_us = float_of_int b.ts.(i) /. 1e3 in
  Printf.bprintf out "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f"
    (escape b.names.(i)) ph pid b.dom ts_us;
  if b.cats.(i) <> "" then Printf.bprintf out ",\"cat\":\"%s\"" (escape b.cats.(i));
  (match b.kinds.(i) with
  | Counter -> Printf.bprintf out ",\"args\":{\"value\":%.6g}" b.values.(i)
  | Instant -> Buffer.add_string out ",\"s\":\"t\""
  | Begin | End -> ());
  Buffer.add_char out '}'

(* The whole recorded trace as a Chrome trace-event JSON array.  Spans
   still open at export time are closed with a synthetic "E" at the
   current clock so the output always has matched B/E pairs. *)
let export_chrome () =
  let bufs = Mutex.protect buffers_lock (fun () -> !buffers) in
  let bufs = List.sort (fun a b -> compare a.dom b.dom) bufs in
  let now = Clock.now_ns () in
  let pid = Unix.getpid () in
  let out = Buffer.create 65536 in
  Buffer.add_char out '[';
  let first = ref true in
  let emit f =
    if !first then first := false else Buffer.add_string out ",\n";
    f ()
  in
  (* Name metadata ("ph":"M") so about:tracing shows the process role
     and domain numbers instead of bare ids. *)
  emit (fun () ->
      Printf.bprintf out
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
        pid (escape (effective_label ())));
  List.iter
    (fun b ->
      emit (fun () ->
          Printf.bprintf out
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
            pid b.dom b.dom);
      let open_spans = ref [] in
      for i = 0 to b.n - 1 do
        (match b.kinds.(i) with
        | Begin -> open_spans := (b.names.(i), b.cats.(i)) :: !open_spans
        | End -> (
          match !open_spans with _ :: rest -> open_spans := rest | [] -> ())
        | Counter | Instant -> ());
        emit (fun () -> write_event out ~pid b i)
      done;
      (* close still-open spans, innermost first *)
      List.iter
        (fun (name, cat) ->
          emit (fun () ->
              let ts_us = float_of_int now /. 1e3 in
              Printf.bprintf out
                "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f%s}"
                (escape name) pid b.dom ts_us
                (if cat = "" then "" else Printf.sprintf ",\"cat\":\"%s\"" (escape cat))))
        !open_spans)
    bufs;
  Buffer.add_string out "]\n";
  Buffer.contents out

let export_chrome_to_file file =
  let oc = open_out file in
  output_string oc (export_chrome ());
  close_out oc

(* ----- pretty text tree ----- *)

let pp_duration ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.2fs" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.1fms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
  else Printf.sprintf "%dns" ns

(* Per-domain span tree with durations; counters and instants are shown
   inline at their nesting depth. *)
let to_text () =
  let bufs = Mutex.protect buffers_lock (fun () -> !buffers) in
  let bufs = List.sort (fun a b -> compare a.dom b.dom) bufs in
  let out = Buffer.create 4096 in
  List.iter
    (fun b ->
      if b.n > 0 then begin
        Printf.bprintf out "domain %d (%d events%s)\n" b.dom b.n
          (if b.dropped > 0 then Printf.sprintf ", %d dropped" b.dropped else "");
        (* stack of (name, begin ts, begin index) *)
        let stack = ref [] in
        let indent () = String.make (2 * (1 + List.length !stack)) ' ' in
        for i = 0 to b.n - 1 do
          match b.kinds.(i) with
          | Begin -> stack := (b.names.(i), b.ts.(i)) :: !stack
          | End -> (
            match !stack with
            | (name, t0) :: rest ->
              stack := rest;
              Printf.bprintf out "%s%-40s %s\n" (indent ()) name
                (pp_duration (b.ts.(i) - t0))
            | [] -> ())
          | Counter ->
            Printf.bprintf out "%s%s = %.6g\n" (indent ()) b.names.(i) b.values.(i)
          | Instant -> Printf.bprintf out "%s@ %s\n" (indent ()) b.names.(i)
        done;
        List.iter
          (fun (name, _) -> Printf.bprintf out "  %s (still open)\n" name)
          !stack
      end)
    bufs;
  Buffer.contents out
