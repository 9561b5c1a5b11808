(** Reuse-distance analysis (paper Section 4.2-(A), Figure 4).

    The memory trace is regrouped by CTA; within a CTA, the reuse
    distance of a use is the number of distinct elements accessed
    between it and the previous use of the same element.  Because the
    GPU L1 is write-evict / write-no-allocate, a write to an address
    restarts its counting: the pending reuse of the old value is
    recorded as infinite ("never reused during execution or before the
    next write", the paper's infinity bucket). *)

(** Element granularity: the access width itself, or whole cache lines
    of the given size (the model fed to the bypassing equation). *)
type granularity = Element | Cache_line of int

(** Histogram buckets of Figure 4's x-axis. *)
type bucket = B0 | B1_2 | B3_8 | B9_32 | B33_128 | B129_512 | B_gt512 | B_inf

val buckets : bucket list
val bucket_of_distance : int -> bucket
val bucket_label : bucket -> string

type result = {
  granularity : granularity;
  samples : int;  (** total use samples (finite + infinite) *)
  histogram : (bucket * int) list;
  finite_reuses : int;
  infinite_reuses : int;  (** streaming / no-reuse accesses *)
  mean_finite_distance : float;  (** the R.D. input of Eq. (1) *)
  max_finite_distance : int;
}

(** Fraction of samples in a bucket, in [0,1]. *)
val fraction : result -> bucket -> float

(** Fraction of no-reuse samples, in [0,1]. *)
val no_reuse_fraction : result -> float

(** Analyze a packed trace on flat int data: a counting sort over the
    CTA column regroups the lane accesses into one int array, and
    last uses live in an int-keyed open-addressing table.  No event
    record is decoded and no polymorphic hash runs per access. *)
val of_trace : ?granularity:granularity -> Profiler.Tracebuf.t -> result

(** Convenience wrapper over {!of_trace} for unpacked event lists
    (tests, synthetic traces). *)
val of_events :
  ?granularity:granularity -> (Gpusim.Hookev.mem * int) list -> result

(** Analyze one kernel instance's trace. *)
val of_instance :
  ?granularity:granularity -> Profiler.Profile.instance -> result

(** Merge per-instance results into the whole-application view. *)
val merge : result list -> result

val pp : Format.formatter -> result -> unit
