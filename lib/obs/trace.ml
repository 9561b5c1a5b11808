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
   domain's buffer; a no-op (one atomic load) when tracing is off. *)
let with_span ?(cat = "") name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = my_buf () in
    let recorded = append b ~force:false Begin name cat (Clock.now_ns ()) 0. in
    Fun.protect
      ~finally:(fun () ->
        if recorded then
          ignore (append b ~force:true End name cat (Clock.now_ns ()) 0.))
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
  (* Name metadata ("ph":"M") so about:tracing shows the process and
     domain numbers instead of bare ids. *)
  emit (fun () ->
      Printf.bprintf out
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"advisor\"}}"
        pid);
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
