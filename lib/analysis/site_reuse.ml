(* Per-instruction (source-site) reuse statistics: the input of
   *vertical* cache bypassing (Xie et al. [55], discussed in Section
   4.2-(D) of the paper), which bypasses individual load instructions
   with little reuse for every warp.

   For each load site we measure how often the data it touches is
   reused by a later access of the same CTA before being written: sites
   that are almost pure streaming gain nothing from the L1 and are
   bypass candidates. *)

type site_stat = {
  loc : Bitc.Loc.t;
  accesses : int; (* thread-level accesses issued by the site *)
  reused_later : int; (* of those, how many were reused afterwards *)
}

let reuse_fraction s =
  if s.accesses = 0 then 0. else float_of_int s.reused_later /. float_of_int s.accesses

(* Streams of (line, is_write, site-loc, event id) per CTA, at
   cache-line granularity (the reuse that matters to the L1).  The
   event id distinguishes lanes of one warp instruction: lanes sharing a
   line within a single access are one coalesced transaction, not an L1
   reuse.

   The whole-application view feeds every kernel instance's trace in
   launch order with a running event id, so CTA streams span instances
   (CTA ids persist across launches).  Each per-CTA stream is packed
   into a flat int vector, three slots per lane access; source
   locations are interned across traces so the pass stays on ints. *)
let of_traces ~line_size (traces : Profiler.Tracebuf.t list) =
  let per_cta : (int, Profiler.Intvec.t) Hashtbl.t = Hashtbl.create 64 in
  let locs = Loc_intern.create () in
  let next_event = ref 0 in
  List.iter
    (fun tr ->
      let global = Loc_intern.of_trace locs tr in
      let arena = Profiler.Tracebuf.addr_arena tr in
      Profiler.Tracebuf.iter tr (fun i ->
          let event_id = !next_event in
          incr next_event;
          let n = Profiler.Tracebuf.acc_len tr i in
          if n > 0 then begin
            let stream =
              let cta = Profiler.Tracebuf.cta tr i in
              match Hashtbl.find_opt per_cta cta with
              | Some v -> v
              | None ->
                let v = Profiler.Intvec.create () in
                Hashtbl.replace per_cta cta v;
                v
            in
            let gloc = global.(Profiler.Tracebuf.loc_id tr i) in
            let is_write =
              if Profiler.Tracebuf.kind tr i = Passes.Hooks.mem_kind_store then 1
              else 0
            in
            let off = Profiler.Tracebuf.acc_off tr i in
            for j = off to off + n - 1 do
              Profiler.Intvec.push stream ((arena.(j) / line_size * 2) lor is_write);
              Profiler.Intvec.push stream gloc;
              Profiler.Intvec.push stream event_id
            done
          end))
    traces;
  let nlocs = Loc_intern.count locs in
  let counts = Array.make nlocs 0 in
  let reused = Array.make nlocs 0 in
  Hashtbl.iter
    (fun _cta stream ->
      (* for each load, was its line touched again by a *later* warp
         instruction before a write? *)
      let pending : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 256 in
      let credit line event_id =
        match Hashtbl.find_opt pending line with
        | Some sites ->
          let later, same =
            List.partition (fun (_, ev) -> ev <> event_id) !sites
          in
          List.iter (fun (gloc, _) -> reused.(gloc) <- reused.(gloc) + 1) later;
          sites := same
        | None -> ()
      in
      let len = Profiler.Intvec.length stream in
      let k = ref 0 in
      while !k < len do
        let packed = Profiler.Intvec.get stream !k in
        let gloc = Profiler.Intvec.get stream (!k + 1) in
        let event_id = Profiler.Intvec.get stream (!k + 2) in
        k := !k + 3;
        let line = packed lsr 1 and is_write = packed land 1 = 1 in
        if is_write then (
          (* write-evict: outstanding loads of this line are never
             L1-reused *)
          match Hashtbl.find_opt pending line with
          | Some sites -> sites := []
          | None -> ())
        else begin
          (* this access is a reuse for pendings from earlier events *)
          credit line event_id;
          counts.(gloc) <- counts.(gloc) + 1;
          let sites =
            match Hashtbl.find_opt pending line with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.replace pending line s;
              s
          in
          sites := (gloc, event_id) :: !sites
        end
      done)
    per_cta;
  let acc = ref [] in
  for g = nlocs - 1 downto 0 do
    if counts.(g) > 0 then
      acc :=
        { loc = Loc_intern.loc locs g; accesses = counts.(g); reused_later = reused.(g) }
        :: !acc
  done;
  List.sort (fun a b -> Bitc.Loc.compare a.loc b.loc) !acc

let of_events ~line_size events =
  of_traces ~line_size [ Profiler.Tracebuf.of_events events ]

(* Load sites whose reuse fraction falls below [threshold]: the
   candidates vertical bypassing sends straight to the L2. *)
let candidates_of_sites ?(threshold = 0.15) sites =
  sites
  |> List.filter (fun s -> reuse_fraction s < threshold && s.accesses > 0)
  |> List.map (fun s -> s.loc)

let bypass_candidates ?threshold ~line_size events =
  candidates_of_sites ?threshold (of_events ~line_size events)
