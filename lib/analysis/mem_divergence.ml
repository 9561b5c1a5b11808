(* Memory-divergence analysis (Section 4.2-(B)): for every warp-level
   global memory instruction, the number of unique cache lines its
   active lanes touch (1..32); Figure 5 is the distribution over the
   whole application, and the "memory divergence degree" is the weighted
   average — the M.D. input of the bypass model (Eq. 1). *)

type result = {
  line_size : int;
  total_instructions : int; (* warp-level memory instructions *)
  distribution : int array; (* index 1..32: count of instructions *)
  degree : float; (* weighted average of unique lines *)
}

let max_lines = 32

(* Single pass over the packed columns: coalescing runs straight on the
   trace's address arena through a reused scratch array, so no per-event
   address list is materialized. *)
let of_trace ~line_size (tr : Profiler.Tracebuf.t) =
  let distribution = Array.make (max_lines + 1) 0 in
  let total = ref 0 in
  let weighted = ref 0 in
  let scratch = Array.make 64 0 in
  let arena = Profiler.Tracebuf.addr_arena tr in
  Profiler.Tracebuf.iter tr (fun i ->
      let n = Profiler.Tracebuf.acc_len tr i in
      if n > 0 then begin
        let width = max 1 (Profiler.Tracebuf.bits tr i / 8) in
        let lines =
          Gpusim.Coalesce.collect_unique_lines ~line_size ~width ~src:arena
            ~off:(Profiler.Tracebuf.acc_off tr i) ~n scratch
        in
        let lines = min lines max_lines in
        distribution.(lines) <- distribution.(lines) + 1;
        weighted := !weighted + lines;
        incr total
      end);
  {
    line_size;
    total_instructions = !total;
    distribution;
    degree = (if !total = 0 then 1. else float_of_int !weighted /. float_of_int !total);
  }

let of_events ~line_size events =
  of_trace ~line_size (Profiler.Tracebuf.of_events events)

let of_instance ~line_size (instance : Profiler.Profile.instance) =
  of_trace ~line_size instance.trace

(* Merge results of independent kernel instances into the whole-
   application distribution of Figure 5. *)
let merge = function
  | [] -> invalid_arg "Mem_divergence.merge: empty"
  | first :: _ as results ->
    let distribution = Array.make (max_lines + 1) 0 in
    let total = ref 0 and weighted = ref 0. in
    List.iter
      (fun r ->
        Array.iteri (fun i c -> distribution.(i) <- distribution.(i) + c) r.distribution;
        total := !total + r.total_instructions;
        weighted := !weighted +. (r.degree *. float_of_int r.total_instructions))
      results;
    {
      line_size = first.line_size;
      total_instructions = !total;
      distribution;
      degree = (if !total = 0 then 1. else !weighted /. float_of_int !total);
    }

let fraction r lines =
  if r.total_instructions = 0 then 0.
  else float_of_int r.distribution.(lines) /. float_of_int r.total_instructions

(* Per-source-location divergence: average unique lines per warp access,
   used by the code-centric debugging view (Figure 8). *)
type site = {
  site_loc : Bitc.Loc.t;
  site_node : int; (* CCT node of the call path *)
  site_count : int;
  site_avg_lines : float;
}

(* Folds the instances' traces in launch order.  Locations are interned
   across traces in first-seen order, so the table sees the same keys in
   the same insertion order as over one trace of all the events, and the
   stable sort keeps ties in that order. *)
let sites_of_traces ~line_size (traces : Profiler.Tracebuf.t list) =
  (* keyed by (interned location id, CCT node) so the pass stays on flat
     ints; ids decode to locations only in the final fold *)
  let table : (int * int, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let locs = Loc_intern.create () in
  let scratch = Array.make 64 0 in
  List.iter
    (fun tr ->
      let global = Loc_intern.of_trace locs tr in
      let arena = Profiler.Tracebuf.addr_arena tr in
      Profiler.Tracebuf.iter tr (fun i ->
          let n = Profiler.Tracebuf.acc_len tr i in
          if n > 0 then begin
            let width = max 1 (Profiler.Tracebuf.bits tr i / 8) in
            let lines =
              min max_lines
                (Gpusim.Coalesce.collect_unique_lines ~line_size ~width ~src:arena
                   ~off:(Profiler.Tracebuf.acc_off tr i) ~n scratch)
            in
            let key =
              (global.(Profiler.Tracebuf.loc_id tr i), Profiler.Tracebuf.node tr i)
            in
            match Hashtbl.find_opt table key with
            | Some (count, sum) ->
              incr count;
              sum := !sum + lines
            | None -> Hashtbl.replace table key (ref 1, ref lines)
          end))
    traces;
  Hashtbl.fold
    (fun (loc_id, node) (count, sum) acc ->
      {
        site_loc = Loc_intern.loc locs loc_id;
        site_node = node;
        site_count = !count;
        site_avg_lines = float_of_int !sum /. float_of_int !count;
      }
      :: acc)
    table []
  |> List.sort (fun a b -> compare b.site_avg_lines a.site_avg_lines)

let sites_of_trace ~line_size tr = sites_of_traces ~line_size [ tr ]

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  for i = 1 to max_lines do
    if r.distribution.(i) > 0 then
      Format.fprintf fmt "%2d lines: %6.2f%% (%d)@ " i (100. *. fraction r i)
        r.distribution.(i)
  done;
  Format.fprintf fmt "degree: %.3f over %d instructions@]" r.degree
    r.total_instructions
