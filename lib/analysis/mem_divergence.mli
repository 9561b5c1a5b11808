(** Memory-divergence analysis (paper Section 4.2-(B), Figure 5): for
    every warp-level global memory instruction, the number of unique
    cache lines its active lanes touch (1..32).  The "memory divergence
    degree" is the weighted average — the M.D. input of Eq. (1). *)

type result = {
  line_size : int;
  total_instructions : int;  (** warp-level memory instructions *)
  distribution : int array;  (** index 1..32: instruction counts *)
  degree : float;  (** weighted average of unique lines *)
}

val max_lines : int

(** Single pass over a packed trace: coalescing runs on the trace's
    address arena, allocating nothing per event. *)
val of_trace : line_size:int -> Profiler.Tracebuf.t -> result

val of_events : line_size:int -> (Gpusim.Hookev.mem * int) list -> result
val of_instance : line_size:int -> Profiler.Profile.instance -> result

(** Merge per-instance results into the whole-application distribution. *)
val merge : result list -> result

(** Fraction of instructions touching exactly [lines] lines, in [0,1]. *)
val fraction : result -> int -> float

(** Per-source-location divergence, used by the code-centric view
    (Figure 8): average unique lines per warp access at each
    (location, calling context) pair, worst first. *)
type site = {
  site_loc : Bitc.Loc.t;
  site_node : int;  (** CCT node of the call path *)
  site_count : int;
  site_avg_lines : float;
}

(** Sites over several traces (a whole application's instances, in
    launch order), equal to {!sites_of_trace} over one trace of all
    their events in order, tie order included. *)
val sites_of_traces : line_size:int -> Profiler.Tracebuf.t list -> site list

val sites_of_trace : line_size:int -> Profiler.Tracebuf.t -> site list
val pp : Format.formatter -> result -> unit
