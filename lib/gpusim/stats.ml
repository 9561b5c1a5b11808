(* Aggregate counters of one kernel launch. *)

type t = {
  mutable warp_insts : int;
  mutable thread_insts : int;
  mutable global_loads : int; (* warp-level *)
  mutable global_stores : int;
  mutable global_atomics : int;
  mutable load_transactions : int;
  mutable store_transactions : int;
  mutable shared_accesses : int;
  mutable branches : int;
  mutable divergent_branches : int;
  mutable hook_calls : int;
  mutable barriers : int;
  (* shared-memory bank model (counted whenever conflict detection runs;
     replays are charged as cycles only under [~bankmodel]) *)
  mutable shared_conflict_accesses : int; (* accesses with degree > 1 *)
  mutable shared_conflict_replays : int; (* sum of (degree - 1) *)
  mutable shared_broadcasts : int; (* accesses where >1 lane shared a word *)
  (* event scheduler: heap pops, and steps that found their operands in
     flight and requeued the warp without issuing *)
  mutable sched_pops : int;
  mutable requeues : int;
}

let create () =
  {
    warp_insts = 0;
    thread_insts = 0;
    global_loads = 0;
    global_stores = 0;
    global_atomics = 0;
    load_transactions = 0;
    store_transactions = 0;
    shared_accesses = 0;
    branches = 0;
    divergent_branches = 0;
    hook_calls = 0;
    barriers = 0;
    shared_conflict_accesses = 0;
    shared_conflict_replays = 0;
    shared_broadcasts = 0;
    sched_pops = 0;
    requeues = 0;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>warp insts: %d@ thread insts: %d@ global loads: %d (%d txns)@ global \
     stores: %d (%d txns)@ atomics: %d@ shared accesses: %d@ branches: %d (%d \
     divergent)@ hook calls: %d@ barriers: %d@ bank conflicts: %d (%d replays, \
     %d broadcasts)@]"
    t.warp_insts t.thread_insts t.global_loads t.load_transactions t.global_stores
    t.store_transactions t.global_atomics t.shared_accesses t.branches
    t.divergent_branches t.hook_calls t.barriers t.shared_conflict_accesses
    t.shared_conflict_replays t.shared_broadcasts
