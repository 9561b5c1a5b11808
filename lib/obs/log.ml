(* Leveled structured logger.  Every layer of the pipeline routes its
   diagnostics here instead of bare [Printf] (or staying silent): the
   level is set from the [OBS_LOG] environment variable or the CLI's
   [--log], lines carry a relative timestamp, level and component, and
   per-level counters land in the metrics registry so a quiet run can
   still report how many warnings it swallowed.

   Writes serialize on a mutex (log lines are rare and must not
   interleave between domains). *)

type level = Debug | Info | Warn | Error | Quiet

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3 | Quiet -> 4

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"
  | Quiet -> "quiet"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | "quiet" | "none" -> Ok Quiet
  | other -> Error (Printf.sprintf "unknown log level %S" other)

let default_level () =
  match Sys.getenv_opt "OBS_LOG" with
  | None -> Warn
  | Some s -> (
    match level_of_string s with
    | Ok l -> l
    | Error _ ->
      Printf.eprintf "obs: ignoring invalid OBS_LOG=%S\n%!" s;
      Warn)

let current = Atomic.make (default_level ())

let set_level l = Atomic.set current l
let level () = Atomic.get current
let enabled l = level_rank l >= level_rank (Atomic.get current)

(* One formatted line, without the trailing newline; pure so the
   format is unit-testable without capturing stderr. *)
let render ~t ~lvl ~component ~msg =
  Printf.sprintf "[%8.3fs] %-5s %s: %s" t (level_name lvl) component msg

let messages_debug = Metrics.counter "log.messages.debug"
let messages_info = Metrics.counter "log.messages.info"
let messages_warn = Metrics.counter "log.messages.warn"
let messages_error = Metrics.counter "log.messages.error"

let message_counter = function
  | Debug -> messages_debug
  | Info -> messages_info
  | Warn -> messages_warn
  | Error -> messages_error
  | Quiet -> messages_error (* unreachable: Quiet is never emitted *)

let out_mutex = Mutex.create ()

let emit lvl component msg =
  Metrics.incr (message_counter lvl);
  if enabled lvl then begin
    let t = float_of_int (Clock.elapsed_ns ()) /. 1e9 in
    let line = render ~t ~lvl ~component ~msg in
    Mutex.protect out_mutex (fun () -> Printf.eprintf "%s\n%!" line)
  end

(* [warn "gpusim" "x = %d" 3] — the message is formatted eagerly (the
   call sites are all off the hot path) and dropped in [emit] when the
   level is filtered. *)
let logf lvl component fmt = Printf.ksprintf (emit lvl component) fmt
let debug component fmt = logf Debug component fmt
let info component fmt = logf Info component fmt
let warn component fmt = logf Warn component fmt
let error component fmt = logf Error component fmt
