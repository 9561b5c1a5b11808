(* Two-tier content-addressed result cache.

   Tier 1 is an in-memory LRU mapping a result key (a hex digest from
   {!Advisor.result_key}) to the already-serialized JSON of a response
   [result] field, bounded by entry count and total payload bytes.
   Tier 2 is an optional on-disk store (one file per entry) that
   survives daemon restarts: stores write through to disk, startup
   reloads the most recent entries up to the memory bounds, and a
   memory miss falls back to a disk read before being declared a miss.

   Serving cached bytes instead of re-simulating is correct because
   every cacheable result is deterministic (the golden-metric tests pin
   this) and the key covers everything that can change the bytes — see
   [Advisor.result_key].

   Corruption tolerance: cache files are validated by a header carrying
   the payload digest and length.  Truncated or garbage files are
   skipped with a logged warning and counted, never raised — a damaged
   cache directory must not take the daemon down.

   Domain safety: one mutex guards the table, the LRU list and the
   disk I/O; entries are immutable strings, so hits escape the lock by
   value. *)

type config = {
  max_entries : int;
  max_bytes : int; (* sum of payload bytes held in memory *)
  dir : string option; (* disk tier root; None = memory only *)
}

let default_config =
  { max_entries = 512; max_bytes = 64 * 1024 * 1024; dir = None }

(* ----- metrics ----- *)

let m_hits = Obs.Metrics.counter "serve.cache.hits"
let m_misses = Obs.Metrics.counter "serve.cache.misses"
let m_evictions = Obs.Metrics.counter "serve.cache.evictions"
let m_stores = Obs.Metrics.counter "serve.cache.stores"
let m_loads = Obs.Metrics.counter "serve.cache.loads"
let m_corrupt = Obs.Metrics.counter "serve.cache.corrupt"
let m_entries = Obs.Metrics.gauge "serve.cache.entries"
let m_bytes = Obs.Metrics.gauge "serve.cache.bytes"

(* ----- the LRU list (intrusive, most-recent at head) ----- *)

type node = {
  key : string;
  data : string;
  mutable prev : node option; (* towards the head / most recent *)
  mutable next : node option; (* towards the tail / eviction end *)
}

type t = {
  cfg : config;
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
}

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let publish_gauges t =
  Obs.Metrics.set_gauge m_entries (float_of_int (Hashtbl.length t.table));
  Obs.Metrics.set_gauge m_bytes (float_of_int t.bytes)

(* Drop least-recently-used entries until both bounds hold.  Disk files
   are kept: the persistence tier intentionally outlives the memory
   bound, so evicted entries come back as disk hits (or on restart). *)
let evict_to_bounds t =
  let over () =
    Hashtbl.length t.table > t.cfg.max_entries || t.bytes > t.cfg.max_bytes
  in
  while over () && t.tail <> None do
    match t.tail with
    | None -> ()
    | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.bytes <- t.bytes - String.length n.data;
      Obs.Metrics.incr m_evictions
  done

(* Callers hold the lock. *)
let insert t key data =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    unlink t old;
    Hashtbl.remove t.table key;
    t.bytes <- t.bytes - String.length old.data
  | None -> ());
  let n = { key; data; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  t.bytes <- t.bytes + String.length data;
  evict_to_bounds t;
  publish_gauges t

(* ----- the disk tier ----- *)

(* One file per entry under [dir], named by a digest of the key (keys
   are already hex digests, but the indirection keeps any key
   filesystem-safe).  Format:

     cudaadvisor-rescache 1 <payload-md5-hex> <payload-length>\n
     <key>\n
     <payload bytes>

   Validation checks the magic, the stored key, the length and the
   digest, so truncation and bit rot are both caught. *)

let magic = "cudaadvisor-rescache 1"

let file_of_key dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key))

let encode_entry ~key data =
  Printf.sprintf "%s %s %d\n%s\n%s" magic
    (Digest.to_hex (Digest.string data))
    (String.length data) key data

(* [Ok (key, payload)] or [Error reason]; never raises. *)
let decode_entry content =
  match String.index_opt content '\n' with
  | None -> Error "no header line"
  | Some hdr_end -> (
    let header = String.sub content 0 hdr_end in
    match String.split_on_char ' ' header with
    | [ m1; m2; digest; len_s ] when m1 ^ " " ^ m2 = magic -> (
      match int_of_string_opt len_s with
      | None -> Error "bad length field"
      | Some len -> (
        match String.index_from_opt content (hdr_end + 1) '\n' with
        | None -> Error "no key line"
        | Some key_end ->
          let key = String.sub content (hdr_end + 1) (key_end - hdr_end - 1) in
          if String.length content - key_end - 1 <> len then
            Error "payload length mismatch (truncated?)"
          else
            let payload = String.sub content (key_end + 1) len in
            if Digest.to_hex (Digest.string payload) <> digest then
              Error "payload digest mismatch"
            else Ok (key, payload)))
    | _ -> Error "bad header")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publication: a crash mid-write leaves a .tmp file the loader
   ignores, never a half-written entry under a valid name. *)
let write_entry dir key data =
  let final = file_of_key dir key in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc (encode_entry ~key data);
     close_out oc;
     Sys.rename tmp final
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let load_file ~expect_key path =
  match read_file path with
  | exception Sys_error msg -> Error ("unreadable: " ^ msg)
  | exception End_of_file -> Error "unreadable: truncated"
  | content -> (
    match decode_entry content with
    | Ok (key, payload)
      when (match expect_key with Some k -> k = key | None -> true) ->
      Ok (key, payload)
    | Ok _ -> Error "key mismatch"
    | Error reason -> Error reason)

(* Reload the newest entries into memory, up to the memory bounds.
   Files are visited newest-first so the survivors are the most
   recently stored, then inserted oldest-first so LRU order matches
   store order. *)
let load_dir t dir =
  let files =
    match Sys.readdir dir with
    | exception Sys_error _ -> [||]
    | names ->
      names
      |> Array.to_list
      |> List.filter (fun n -> not (Filename.check_suffix n ".tmp"))
      |> List.filter_map (fun n ->
             let p = Filename.concat dir n in
             match Unix.stat p with
             | { Unix.st_kind = Unix.S_REG; st_mtime; _ } -> Some (st_mtime, p)
             | _ -> None
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> List.map snd
      |> Array.of_list
  in
  let kept = ref [] in
  let kept_bytes = ref 0 in
  Array.iter
    (fun path ->
      if
        List.length !kept < t.cfg.max_entries
        && !kept_bytes <= t.cfg.max_bytes
      then
        match load_file ~expect_key:None path with
        | Ok (key, payload) ->
          kept := (key, payload) :: !kept;
          kept_bytes := !kept_bytes + String.length payload
        | Error reason ->
          Obs.Metrics.incr m_corrupt;
          Obs.Log.warn "rescache" "skipping cache file %s: %s" path reason)
    files;
  (* !kept is newest..oldest reversed by consing: it is oldest-first *)
  List.iter
    (fun (key, payload) ->
      insert t key payload;
      Obs.Metrics.incr m_loads)
    !kept

let create cfg =
  let t =
    {
      cfg;
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      head = None;
      tail = None;
      bytes = 0;
    }
  in
  (match cfg.dir with
  | None -> ()
  | Some dir ->
    (* mkdir -p: the parent of <cache-dir> may not exist yet either *)
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        let parent = Filename.dirname d in
        if parent <> d then mkdir_p parent;
        try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      end
    in
    mkdir_p dir;
    Mutex.protect t.lock (fun () -> load_dir t dir));
  t

(* ----- lookups and stores ----- *)

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        unlink t n;
        push_front t n;
        Obs.Metrics.incr m_hits;
        Some n.data
      | None -> (
        (* memory miss: the disk tier may still have it (evicted, or
           written by a previous incarnation past the startup bounds) *)
        match t.cfg.dir with
        | None ->
          Obs.Metrics.incr m_misses;
          None
        | Some dir -> (
          let path = file_of_key dir key in
          if not (Sys.file_exists path) then begin
            Obs.Metrics.incr m_misses;
            None
          end
          else
            match load_file ~expect_key:(Some key) path with
            | Ok (_, payload) ->
              insert t key payload;
              Obs.Metrics.incr m_loads;
              Obs.Metrics.incr m_hits;
              Some payload
            | Error reason ->
              Obs.Metrics.incr m_corrupt;
              Obs.Log.warn "rescache" "skipping cache file %s: %s" path reason;
              Obs.Metrics.incr m_misses;
              None)))

let store t key data =
  Mutex.protect t.lock (fun () ->
      insert t key data;
      Obs.Metrics.incr m_stores;
      match t.cfg.dir with
      | None -> ()
      | Some dir -> (
        try write_entry dir key data
        with e ->
          (* a full or read-only disk degrades the tier, not the daemon *)
          Obs.Log.warn "rescache" "failed to persist cache entry: %s"
            (Printexc.to_string e)))

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let bytes t = Mutex.protect t.lock (fun () -> t.bytes)
