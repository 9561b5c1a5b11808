(* The load generator's side of the wire: spawn one `advisor serve`
   daemon as a child process, talk newline-delimited JSON to it over a
   Unix-domain socket, and stop it again. *)

type daemon = { pid : int; sock : string }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Start [advisor serve] on [sock] with the given extra flags; its
   stderr goes to [log]. *)
let spawn ~exe ~sock ~log flags =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = devnull () in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((exe :: "serve" :: "--socket" :: sock :: flags)) in
  let pid = Unix.create_process exe argv null null logfd in
  Unix.close null;
  Unix.close logfd;
  { pid; sock }

(* ----- connections ----- *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  pending : Buffer.t; (* bytes after the last complete line *)
  lines : string Queue.t; (* complete lines not yet taken *)
  out : Buffer.t; (* queued request bytes the socket has not taken yet *)
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    Some { fd; buf = Bytes.create 65536; pending = Buffer.create 4096;
        lines = Queue.create (); out = Buffer.create 4096 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd data !off (len - !off)
  done

(* Non-blocking sends (the socket must be in non-blocking mode):
   queue the line, then [flush] writes as much as the socket takes. *)
let queue_send c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

let flush c =
  let len = Buffer.length c.out in
  if len > 0 then begin
    let data = Buffer.to_bytes c.out in
    let n =
      try Unix.write c.fd data 0 len
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    in
    Buffer.clear c.out;
    if n < len then Buffer.add_subbytes c.out data n (len - n)
  end

(* Read what is available (one [read]) and split complete lines into
   the queue.  Returns false on EOF. *)
let fill c =
  let n =
    try Unix.read c.fd c.buf 0 (Bytes.length c.buf)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
  in
  if n < 0 then true else
  if n = 0 then false
  else begin
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.buf i = '\n' then begin
        Buffer.add_subbytes c.pending c.buf !start (i - !start);
        Queue.push (Buffer.contents c.pending) c.lines;
        Buffer.clear c.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.pending c.buf !start (n - !start);
    true
  end

(* Block until one full response line is available. *)
let rec recv c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None -> if fill c then recv c else failwith "daemon closed the connection"

let call c line =
  send c line;
  recv c

(* Connect to a freshly spawned daemon, retrying until it answers a
   ping or a minute passes. *)
let await_ready d =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up (see its log)");
    match connect d.sock with
    | Some c ->
      let reply = call c {|{"id":0,"op":"ping"}|} in
      close c;
      if not (String.length reply > 20 && String.sub reply 0 20 = {|{"id":0,"ok":true,"o|})
      then failwith ("daemon ping failed: " ^ reply)
    | None ->
      if Unix.gettimeofday () > deadline then failwith "daemon did not start";
      Unix.sleepf 0.01;
      go ()
  in
  go ()

(* The daemon's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* The daemon's CPU time so far, in seconds: the sum over its threads
   of the scheduler's run time (/proc/<pid>/task/<tid>/schedstat, in
   ns), which leaves out time the threads wait for a CPU. *)
let cpu_s d =
  let dir = Printf.sprintf "/proc/%d/task" d.pid in
  let thread_ns tid =
    match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
    | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      Scanf.sscanf (input_line ic) "%d" Fun.id
    | exception Sys_error _ -> 0 (* the thread has just exited *)
  in
  let ns = Array.fold_left (fun acc tid -> acc + thread_ns tid) 0 (Sys.readdir dir) in
  float_of_int ns /. 1e9

(* SIGTERM, then wait for the drain; SIGKILL if it hangs. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* ----- envelopes ----- *)

(* A success line is spliced as {"id":<id>,"ok":true,"op":"<op>",
   "result":<bytes>}; return the result bytes, or None for any other
   envelope (errors, overload, timeouts). *)
let ok_result ~id ~op line =
  let prefix = Printf.sprintf {|{"id":%d,"ok":true,"op":"%s","result":|} id op in
  let pl = String.length prefix and ll = String.length line in
  if ll > pl + 1 && String.sub line 0 pl = prefix && line.[ll - 1] = '}' then
    Some (String.sub line pl (ll - pl - 1))
  else None

(* The numeric id of a response line ({"id":<int>,...}). *)
let id_of line =
  let n = String.length line in
  let rec digits i acc =
    if i < n && line.[i] >= '0' && line.[i] <= '9' then
      digits (i + 1) ((acc * 10) + Char.code line.[i] - 48)
    else acc
  in
  if n > 6 && String.sub line 0 6 = {|{"id":|} then
    if line.[6] = '-' then -digits 7 0 else digits 6 0
  else failwith ("reply without an id: " ^ line)
