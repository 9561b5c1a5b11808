(* Merge the span-record files under a `serve --trace-dir` directory
   (written by [Trace.open_dir_sink], one per daemon process) into one
   Chrome trace-event JSON.

   Each input line is one completed span stamped with a trace id, its
   parent span's name, the OS pid and a logical process label ("serve"
   for the intake domain, "serve/worker" for worker domains).  The
   merged view groups spans by (pid, label) — one Chrome "process" per
   role, named with "ph":"M" metadata — so about:tracing shows one
   timeline for intake and one for the workers, with the request linked
   across them by trace_id in the span args.  Malformed lines are
   counted and skipped, never fatal: a daemon killed mid-write must not
   sink the merge. *)

type record = {
  r_trace : string;
  r_parent : string;
  r_name : string;
  r_cat : string;
  r_ts : int; (* ns *)
  r_dur : int; (* ns *)
  r_pid : int;
  r_dom : int;
  r_proc : string;
}

type merged = {
  json : string;
  files : int;
  records : int;
  skipped : int; (* malformed or filtered-out lines *)
  procs : string list; (* distinct logical process labels, sorted *)
}

let record_of_line line =
  match Jsonv.parse line with
  | Error _ -> None
  | Ok v ->
    let str k = Option.bind (Jsonv.member k v) Jsonv.to_string_opt in
    let num k =
      match Option.bind (Jsonv.member k v) Jsonv.to_float_opt with
      | Some f -> Some (int_of_float f)
      | None -> None
    in
    (match (str "trace", str "name", num "ts", num "dur", num "pid") with
    | Some r_trace, Some r_name, Some r_ts, Some r_dur, Some r_pid ->
      Some
        {
          r_trace;
          r_parent = Option.value (str "parent") ~default:"";
          r_name;
          r_cat = Option.value (str "cat") ~default:"";
          r_ts;
          r_dur;
          r_pid;
          r_dom = Option.value (num "dom") ~default:0;
          r_proc =
            (match str "proc" with
            | Some p when p <> "" -> p
            | _ -> Printf.sprintf "pid-%d" r_pid);
        }
    | _ -> None)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let records = ref [] in
      let skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match record_of_line line with
             | Some r -> records := r :: !records
             | None -> incr skipped
         done
       with End_of_file -> ());
      (List.rev !records, !skipped))

let span_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ndjson")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* [merge ~dir ()] joins every spans-*.ndjson under [dir]; pass
   [~trace_id] to keep only one request's spans. *)
let merge ?trace_id ~dir () =
  let files = span_files dir in
  let all, skipped_parse =
    List.fold_left
      (fun (acc, sk) f ->
        let rs, s = read_file f in
        (acc @ rs, sk + s))
      ([], 0) files
  in
  let keep, filtered =
    match trace_id with
    | None -> (all, 0)
    | Some id ->
      let keep = List.filter (fun r -> r.r_trace = id) all in
      (keep, List.length all - List.length keep)
  in
  let keep = List.stable_sort (fun a b -> compare a.r_ts b.r_ts) keep in
  (* One Chrome pid per distinct (os pid, logical label); labels sort
     first so serve / serve/worker group predictably. *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = (r.r_proc, r.r_pid) in
      if not (Hashtbl.mem groups k) then Hashtbl.add groups k ())
    keep;
  let ordered =
    Hashtbl.fold (fun k () acc -> k :: acc) groups [] |> List.sort compare
  in
  let chrome_pid = Hashtbl.create 8 in
  List.iteri (fun i k -> Hashtbl.replace chrome_pid k (i + 1)) ordered;
  let esc = Trace.escape in
  let out = Buffer.create 65536 in
  Buffer.add_char out '[';
  let first = ref true in
  let emit f =
    if !first then first := false else Buffer.add_string out ",\n";
    f ()
  in
  List.iter
    (fun ((proc, ospid) as k) ->
      let cp = Hashtbl.find chrome_pid k in
      emit (fun () ->
          Printf.bprintf out
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
            cp (esc proc));
      emit (fun () ->
          Printf.bprintf out
            "{\"name\":\"process_labels\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"labels\":\"os pid %d\"}}"
            cp ospid);
      let doms = Hashtbl.create 4 in
      List.iter
        (fun r ->
          if (r.r_proc, r.r_pid) = k && not (Hashtbl.mem doms r.r_dom) then
            Hashtbl.replace doms r.r_dom ())
        keep;
      Hashtbl.fold (fun d () acc -> d :: acc) doms []
      |> List.sort compare
      |> List.iter (fun d ->
             emit (fun () ->
                 Printf.bprintf out
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
                   cp d d)))
    ordered;
  List.iter
    (fun r ->
      let cp = Hashtbl.find chrome_pid (r.r_proc, r.r_pid) in
      emit (fun () ->
          Printf.bprintf out
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
            (esc r.r_name) cp r.r_dom
            (float_of_int r.r_ts /. 1e3)
            (float_of_int r.r_dur /. 1e3);
          if r.r_cat <> "" then
            Printf.bprintf out ",\"cat\":\"%s\"" (esc r.r_cat);
          Printf.bprintf out ",\"args\":{\"trace_id\":\"%s\"" (esc r.r_trace);
          if r.r_parent <> "" then
            Printf.bprintf out ",\"parent\":\"%s\"" (esc r.r_parent);
          Buffer.add_string out "}}"))
    keep;
  Buffer.add_string out "]\n";
  {
    json = Buffer.contents out;
    files = List.length files;
    records = List.length keep;
    skipped = skipped_parse + filtered;
    procs = List.map fst ordered |> List.sort_uniq String.compare;
  }
