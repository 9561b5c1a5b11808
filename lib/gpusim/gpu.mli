(** Kernel launch engine: CTA scheduling across SMs, per-SM warp
    scheduling driven by an event heap, barrier handling and statistics
    collection.  This is the "real GPU hardware" of the paper's Figure
    1, in simulated form. *)

exception Launch_error of string

(** A simulated GPU: architecture, global memory and shared L2.  Device
    state (memory contents, L2) persists across launches, like a real
    CUDA context. *)
type device = {
  arch : Arch.t;
  devmem : Devmem.t;
  l2 : Cache.t;
}

val create_device : Arch.t -> device

(** Result of one kernel launch. *)
type result = {
  cycles : int;  (** launch duration including launch overhead *)
  stats : Stats.t;
  l1_stats : Cache.stats;  (** aggregated over SMs *)
  l2_stats : Cache.stats;  (** delta for this launch *)
  mshr_stalls : int;
  mshr_merges : int;
  ctas : int;
  warps_per_cta : int;
}

val launch_overhead : int

(** {2 Per-warp runaway guard}

    A launch aborts (with {!Launch_error}, after logging through
    [Obs.Log]) when any single warp executes more than the limit.  The
    effective limit, sampled once per launch, is the programmatic
    override if set, else the [CUDAADVISOR_MAX_WARP_INSTRS] environment
    variable (ignored unless a positive integer), else
    {!default_max_warp_insts}. *)

val default_max_warp_insts : int

(** Raises [Invalid_argument] on non-positive limits. *)
val set_max_warp_insts : int -> unit

val clear_max_warp_insts : unit -> unit

(** The limit the next launch will use. *)
val max_warp_insts : unit -> int

(** {2 Per-domain cancellation}

    Wall-clock request timeouts for long-lived embedders (the serve
    daemon), layered on the runaway guard: the embedder installs a
    check on its own domain, and any launch issued from that domain
    polls it at launch entry and then every few thousand executed
    instructions, raising {!Cancelled} when it fires.  Only the cancelled launch unwinds;
    the device, the process and other domains are untouched. *)

exception Cancelled of string

(** Install a check on the calling domain: return [Some reason] to
    abort in-flight and future launches of this domain. *)
val set_cancel_check : (unit -> string option) -> unit

val clear_cancel_check : unit -> unit

(** The check currently installed on the calling domain (the default
    never fires).  Lets an embedder capture one request's deadline and
    re-install it on worker domains it fans out to, since DLS state
    does not inherit across [Domain.spawn]. *)
val current_cancel_check : unit -> unit -> string option

(** Poll the calling domain's check now, raising {!Cancelled} if it
    fired.  For long non-simulation operations that want the same
    deadline behaviour. *)
val poll_cancel : unit -> unit

(** Maximum CTAs resident per SM for a kernel with the given shape.
    Shared allocations round up to
    [Arch.shared_alloc_granularity] before dividing into the SM's
    array.  Raises {!Launch_error} when the CTA cannot fit on an SM at
    all (more warps than [max_warps_per_sm], or a rounded shared
    allocation larger than the SM's array). *)
val occupancy_limit : Arch.t -> warps_per_cta:int -> shared_bytes:int -> int

(** Launch [kernel] from [prog] over [grid] x [block] threads.  [sink]
    receives instrumentation hook events; [l1_enabled:false] disables
    L1 caching of global loads (Kepler's default for real hardware).
    [bankmodel:true] opts into charging shared-memory bank-conflict
    replays as issue cycles (conflict *counting* runs whenever a sink
    is attached; with the model off, timing is bit-identical to the
    pre-bank-model simulator).
    Raises {!Launch_error} on malformed launches and {!Exec.Trap} on
    runtime faults inside the kernel. *)
val launch :
  ?sink:Hookev.sink ->
  ?l1_enabled:bool ->
  ?bankmodel:bool ->
  device ->
  prog:Ptx.Isa.prog ->
  kernel:string ->
  grid:int * int ->
  block:int * int ->
  args:Value.t list ->
  unit ->
  result
