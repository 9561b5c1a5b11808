(* Functional + timing execution of warp instructions over the
   predecoded program form ([Ptx.Isa.dinst]).  Lanes of a warp execute
   in lock-step under the active mask of the top SIMT-stack entry;
   memory instructions are coalesced into cache-line transactions and
   timed through the L1/MSHR/L2/DRAM hierarchy.

   This is the innermost loop of every experiment, so the hot arms
   avoid per-lane closures and boxing: masks are iterated inline,
   operands are the pre-split [dop] form, and register-file accesses
   use the flat unchecked accessors ([Decode] validated the indices). *)

open Machine

exception Trap of { kernel : string; pc : int; loc : Bitc.Loc.t; msg : string }

type ctx = {
  arch : Arch.t;
  prog : Ptx.Isa.prog;
  dec : Ptx.Isa.decoded; (* predecoded program, for call targets *)
  kernel : string;
  devmem : Devmem.t;
  l2 : Cache.t;
  sink : Hookev.sink;
  stats : Stats.t;
  grid : int * int;
  block : int * int;
  l1_enabled : bool;
  (* shared bandwidth queues: next cycle at which the L2 / DRAM can
     accept another transaction.  Thrashing saturates these, which is
     what makes L1 hits (and bypassing) worth anything. *)
  l2_free : int ref;
  dram_free : int ref;
  (* trace-buffer cursor: instrumentation hooks serialize on a global
     atomic, the paper's first overhead source (Section 5) *)
  hook_free : int ref;
  (* per-launch scratch for the coalescing unit: active-lane addresses
     and the unique lines they touch.  Reused every memory instruction
     so the inner loop allocates nothing. *)
  addr_scratch : int array; (* 32 lanes *)
  line_scratch : int array; (* each access may straddle 2 lines *)
  (* shared-memory bank model: [bankcount] turns conflict detection on
     (instrumented runs and [~bankmodel] runs); [bankmodel] additionally
     charges the replays as issue cycles.  Native un-instrumented runs
     skip the whole path, keeping golden timings bit-identical. *)
  bankmodel : bool;
  bankcount : bool;
  bank_scratch : int array; (* active lanes' word indices, 32 lanes *)
  bank_count : int array; (* per-bank distinct-word counts *)
}

let make_scratch () = (Array.make 32 0, Array.make 64 0)

let trap ctx ~pc ~loc fmt =
  Printf.ksprintf (fun msg -> raise (Trap { kernel = ctx.kernel; pc; loc; msg })) fmt

(* Same-module copies of the {!Machine} register-file accessors.  The
   classic (non-flambda) inliner will not fold the cross-module
   originals into the interpreter arms — each register read was a real
   call — but it reliably inlines small same-module bodies.  The
   float-tagged paths are kept out of line so the hot bodies stay under
   the inlining budget; they are rare (a float register read as an int
   is a trap, an int register read as a float only happens for
   implicit coercions). *)

let ntz_table =
  let t = Bytes.make 37 '\000' in
  for i = 0 to 31 do
    Bytes.unsafe_set t ((1 lsl i) mod 37) (Char.chr i)
  done;
  t

(* Bit index of the isolated low bit [b] (a power of two); same scheme
   as {!Machine.ntz}. *)
let[@inline] ntz b = Char.code (Bytes.unsafe_get ntz_table (b mod 37))

let[@inline] popcount mask =
  let c = ref 0 in
  let m = ref mask in
  while !m <> 0 do
    incr c;
    m := !m land (!m - 1)
  done;
  !c

let fget_int_float frame i = Value.to_int (Value.F (Array.unsafe_get frame.regs_f i))

let[@inline] fget_int frame i =
  if Bytes.unsafe_get frame.regs_tag i = '\000' then Array.unsafe_get frame.regs_i i
  else fget_int_float frame i

let[@inline] fget_float frame i =
  if Bytes.unsafe_get frame.regs_tag i = '\001' then Array.unsafe_get frame.regs_f i
  else float_of_int (Array.unsafe_get frame.regs_i i)

let[@inline] fset_int frame i v =
  Bytes.unsafe_set frame.regs_tag i '\000';
  Array.unsafe_set frame.regs_i i v

let[@inline] fset_float frame i v =
  Bytes.unsafe_set frame.regs_tag i '\001';
  Array.unsafe_set frame.regs_f i v

(* ----- per-lane operand evaluation -----

   [base] is the lane index: register [r] of lane [l] lives at flat
   index [(r lsl 5) + l] (see the layout note on {!Machine.frame}).  The typed
   reads mirror [Value.to_int]/[Value.to_float] on the old boxed
   representation: a float immediate (or float register) read as an int
   traps, ints coerce to float implicitly. *)

let[@inline] dev_int (df : Ptx.Isa.dfunc) frame base (o : Ptx.Isa.dop) =
  if o.okind = 0 then fget_int frame ((o.onum lsl 5) + base)
  else if o.okind = 1 then o.onum
  else Value.to_int (Value.F (Array.unsafe_get df.fimms o.onum))

let[@inline] dev_float (df : Ptx.Isa.dfunc) frame base (o : Ptx.Isa.dop) =
  if o.okind = 0 then fget_float frame ((o.onum lsl 5) + base)
  else if o.okind = 1 then float_of_int o.onum
  else Array.unsafe_get df.fimms o.onum

let dev_value (df : Ptx.Isa.dfunc) frame base (o : Ptx.Isa.dop) : Value.t =
  if o.okind = 0 then
    let i = (o.onum lsl 5) + base in
    if Bytes.unsafe_get frame.regs_tag i = '\001' then
      Value.F (Array.unsafe_get frame.regs_f i)
    else Value.I (Array.unsafe_get frame.regs_i i)
  else if o.okind = 1 then Value.I o.onum
  else Value.F (Array.unsafe_get df.fimms o.onum)

(* Copy an operand into a destination register preserving its int/float
   identity (Mov, Selp, call arguments). *)
let[@inline] dstore (df : Ptx.Isa.dfunc) sframe sbase (o : Ptx.Isa.dop) dframe dbase
    dst =
  if o.okind = 0 then begin
    let si = (o.onum lsl 5) + sbase in
    if Bytes.unsafe_get sframe.regs_tag si = '\001' then
      fset_float dframe ((dst lsl 5) + dbase) (Array.unsafe_get sframe.regs_f si)
    else fset_int dframe ((dst lsl 5) + dbase) (Array.unsafe_get sframe.regs_i si)
  end
  else if o.okind = 1 then fset_int dframe ((dst lsl 5) + dbase) o.onum
  else fset_float dframe ((dst lsl 5) + dbase) (Array.unsafe_get df.fimms o.onum)

let first_lane mask =
  let rec go i = if i = 32 then invalid_arg "first_lane: empty mask" else if mask land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

(* Comparison identical to the polymorphic [compare] the interpreter
   historically used: total order with nan below everything. *)
let[@inline] int_cmp (x : int) y = if x < y then -1 else if x > y then 1 else 0

let[@inline] compare_vals (op : Bitc.Instr.cmp) c =
  match op with Eq -> c = 0 | Ne -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0

(* ----- local / shared byte buffers ----- *)

(* Load from a byte buffer straight into a register (no intermediate
   [Value.t]); store a value into a byte buffer likewise.  [di] is the
   destination's flat register index. *)

let[@inline] bytes_read_reg (buf : Bytes.t) ~addr ~width ~fl frame di =
  match width, fl with
  | 1, false -> fset_int frame di (Char.code (Bytes.get buf addr))
  | 4, false -> fset_int frame di (Int32.to_int (Bytes.get_int32_le buf addr))
  | 4, true -> fset_float frame di (Int32.float_of_bits (Bytes.get_int32_le buf addr))
  | 8, false -> fset_int frame di (Int64.to_int (Bytes.get_int64_le buf addr))
  | _ -> invalid_arg "bytes_read: unsupported width"

let[@inline] bytes_write_op df (buf : Bytes.t) ~addr ~width ~fl frame base src =
  match width, fl with
  | 1, false -> Bytes.set buf addr (Char.chr (dev_int df frame base src land 0xff))
  | 4, false -> Bytes.set_int32_le buf addr (Int32.of_int (dev_int df frame base src))
  | 4, true -> Bytes.set_int32_le buf addr (Int32.bits_of_float (dev_float df frame base src))
  | 8, false -> Bytes.set_int64_le buf addr (Int64.of_int (dev_int df frame base src))
  | _ -> invalid_arg "bytes_write: unsupported width"

(* ----- shared-memory bank conflicts ----- *)

(* Conflict shape of one shared access: [words.(0..n-1)] hold the active
   lanes' word indices (address / bank width).  A bank serializes one
   pass per *distinct* word mapped to it; lanes reading the same word
   are a broadcast and cost nothing.  Returns
   [(degree lsl 8) lor broadcast_lanes] — degree is the worst bank's
   pass count, broadcast_lanes the number of lanes whose word another
   lane also touches.  O(n^2) over n <= 32 lanes, allocation-free. *)
let conflict_shape ~banks (words : int array) n (bank_count : int array) =
  Array.fill bank_count 0 banks 0;
  let degree = ref 1 in
  let broadcast = ref 0 in
  for i = 0 to n - 1 do
    let w = Array.unsafe_get words i in
    let seen_before = ref false in
    let shares_word = ref false in
    for j = 0 to n - 1 do
      if j <> i && Array.unsafe_get words j = w then begin
        shares_word := true;
        if j < i then seen_before := true
      end
    done;
    if !shares_word then incr broadcast;
    if not !seen_before then begin
      let b = w mod banks in
      let c = Array.unsafe_get bank_count b + 1 in
      Array.unsafe_set bank_count b c;
      if c > !degree then degree := c
    end
  done;
  (!degree lsl 8) lor !broadcast

(* Count one shared access's conflicts (word indices already collected
   into [ctx.bank_scratch]), emit the per-site record to the profiler
   sink, and return the extra issue cycles — zero unless the opt-in
   [bankmodel] charges [replays * shared_replay]. *)
let shared_conflicts ctx (warp : warp) ~loc ~kind ~n ~active =
  if n < 2 then 0
  else begin
    let arch = ctx.arch in
    let packed =
      conflict_shape ~banks:arch.shared_banks ctx.bank_scratch n ctx.bank_count
    in
    let degree = packed lsr 8 in
    let broadcast = packed land 0xff in
    if broadcast > 0 then
      ctx.stats.shared_broadcasts <- ctx.stats.shared_broadcasts + 1;
    if degree <= 1 then 0
    else begin
      let replays = degree - 1 in
      ctx.stats.shared_conflict_accesses <-
        ctx.stats.shared_conflict_accesses + 1;
      ctx.stats.shared_conflict_replays <-
        ctx.stats.shared_conflict_replays + replays;
      ctx.sink
        (Hookev.Conflict
           { kernel = ctx.kernel; cta = warp.cta.cta_linear;
             warp = warp.warp_id; loc; kind; degree; replays;
             broadcast_lanes = broadcast; active_lanes = popcount active });
      if ctx.bankmodel then replays * arch.shared_replay else 0
    end
  end

(* ----- timing of global transactions ----- *)

(* Time one fill from the L2/DRAM side issued at [now]: accounts for the
   shared bandwidth queues and returns the added latency beyond the
   L1-miss base path. *)
let l2_side_fill ctx ?(sector = false) ~scale ~now line_addr =
  let arch = ctx.arch in
  (* 32 B sector requests ride the wide L2 crossbar for free; full-line
     fills consume an L2 queue slot *)
  let start =
    if sector then now
    else begin
      let s = max now !(ctx.l2_free) in
      ctx.l2_free := s + arch.l2_service;
      s
    end
  in
  if Cache.access_read ctx.l2 line_addr then start - now
  else begin
    let dram_start = max start !(ctx.dram_free) in
    ctx.dram_free := dram_start + max 1 (arch.dram_service / scale);
    dram_start - now + (arch.dram_latency - arch.l2_latency)
  end

(* Time one read transaction on line [line_addr] issued at [now];
   returns data-arrival time.  [granularity] is the transaction size in
   bytes: full L1 lines for caching loads, 32 B sectors for bypassed
   ones, which scales the bandwidth they consume.  [cache_l1] selects
   the L1 path (a caching load with L1 enabled). *)
let time_read_txn ctx (sm : sm) ~cache_l1 ~granularity ~now line_addr =
  let arch = ctx.arch in
  if cache_l1 then begin
    (* serial tag-port lookup: divergent accesses queue here *)
    let at = max now sm.l1_port_free in
    sm.l1_port_free <- at + 1;
    if Cache.access_read sm.l1 line_addr then at + arch.l1_latency
    else
      let latency start =
        arch.l1_latency + Arch.l1_miss_to_l2_latency arch
        + l2_side_fill ctx ~scale:1 ~now:start line_addr
      in
      Mshr.acquire sm.mshr ~line:(line_addr / arch.line_size) ~now:at ~latency
  end
  else begin
    (* bypass L1: straight to L2/DRAM through the TPC-level sector path,
       which has ample bandwidth for 32 B sectors *)
    let scale = max 1 (arch.line_size / max 1 granularity) in
    now + Arch.l1_miss_to_l2_latency arch
    + l2_side_fill ctx ~scale ~sector:(scale > 1) ~now line_addr
  end

(* Stores are write-through fire-and-forget: they do not stall the warp
   but they evict L1/L2 copies and consume shared bandwidth. *)
let time_write_txn ctx (sm : sm) ~now line_addr =
  if ctx.l1_enabled then begin
    (* write-evict probe occupies the tag port too *)
    sm.l1_port_free <- max now sm.l1_port_free + 1;
    Cache.access_write sm.l1 line_addr
  end;
  Cache.access_write ctx.l2 line_addr;
  let start = max now !(ctx.l2_free) in
  ctx.l2_free := start + ctx.arch.l2_service;
  let dram_start = max start !(ctx.dram_free) in
  ctx.dram_free := dram_start + ctx.arch.dram_service

(* ----- special registers ----- *)

let sreg_value ctx (warp : warp) lane (which : Bitc.Instr.special) =
  let bx, by = ctx.block in
  let gx, gy = ctx.grid in
  ignore by;
  let lin = (warp.warp_id * 32) + lane in
  match which with
  | Tid_x -> lin mod bx
  | Tid_y -> lin / bx
  | Ctaid_x -> warp.cta.cta_x
  | Ctaid_y -> warp.cta.cta_y
  | Ntid_x -> fst ctx.block
  | Ntid_y -> snd ctx.block
  | Nctaid_x -> gx
  | Nctaid_y -> gy
  | Warpid -> warp.warp_id

(* ----- SIMT stack maintenance ----- *)

(* Pop reconverged entries and completed frames until the warp is ready
   to execute, finished, or at a barrier. *)
let rec normalize (warp : warp) =
  match warp.frames with
  | [] -> ()
  | frame :: rest -> (
    match frame.stack with
    | [] ->
      (* every lane returned: pop the frame, deliver return values *)
      warp.frames <- rest;
      (match rest, frame.ret_dst with
      | caller :: _, Some dst ->
        iter_lanes frame.init_mask (fun lane ->
            set_reg_value caller lane dst frame.retvals.(lane))
      | _, _ -> ());
      (* no reference to the popped frame survives this point *)
      release_frame frame;
      if rest = [] then begin
        warp.status <- Finished;
        warp.cta.finished_warps <- warp.cta.finished_warps + 1
      end
      else normalize warp
    | entry :: below ->
      if entry.pc = entry.rpc then begin
        frame.stack <- below;
        normalize warp
      end)

(* ----- hook dispatch ----- *)

let dispatch_hook ctx (warp : warp) (frame : frame) ~pc ~mask ~issue
    ~(hook : Ptx.Isa.dhook) =
  let df = frame.dfunc in
  let loc = df.fsrc.locs.(pc) in
  let fl = first_lane mask in
  let fbase = fl in
  let evi op = dev_int df frame fbase op in
  let cta = warp.cta.cta_linear in
  let event =
    match hook with
    | Ptx.Isa.DH_mem { addr; bits; kind } ->
      let accesses = Array.make (popcount mask) (0, 0) in
      let k = ref 0 in
      iter_lanes mask (fun lane ->
          accesses.(!k) <- (lane, dev_int df frame lane addr);
          incr k);
      Some
        (Hookev.Mem
           { kernel = ctx.kernel; cta; warp = warp.warp_id; loc; bits = evi bits;
             kind = evi kind; accesses })
    | Ptx.Isa.DH_bb { bb_id } ->
      Some
        (Hookev.Bb
           { kernel = ctx.kernel; cta; warp = warp.warp_id; bb_id = evi bb_id; loc;
             active_mask = mask; live_mask = warp.live_mask })
    | Ptx.Isa.DH_arith { code; a; b } ->
      let operands = Array.make (popcount mask) (0, 0., 0.) in
      let k = ref 0 in
      iter_lanes mask (fun lane ->
          let base = lane in
          operands.(!k) <- (lane, dev_float df frame base a, dev_float df frame base b);
          incr k);
      Some
        (Hookev.Arith
           { kernel = ctx.kernel; cta; warp = warp.warp_id; code = evi code; loc;
             operands })
    | Ptx.Isa.DH_call { callsite; push } ->
      Some
        (Hookev.Call
           { kernel = ctx.kernel; cta; warp = warp.warp_id;
             callsite = evi callsite; mask; push })
    | Ptx.Isa.DH_shared { addr; bits; kind } ->
      let accesses = Array.make (popcount mask) (0, 0) in
      let k = ref 0 in
      iter_lanes mask (fun lane ->
          accesses.(!k) <- (lane, dev_int df frame lane addr);
          incr k);
      Some
        (Hookev.Shared
           { kernel = ctx.kernel; cta; warp = warp.warp_id; loc; bits = evi bits;
             kind = evi kind; accesses })
    | Ptx.Isa.DH_bar { bar_id } ->
      Some
        (Hookev.Barrier
           { kernel = ctx.kernel; cta; warp = warp.warp_id; bar_id = evi bar_id;
             loc; mask })
    | Ptx.Isa.DH_bad { hname } ->
      trap ctx ~pc ~loc "unknown or malformed hook %s" hname
  in
  Option.iter ctx.sink event;
  ctx.stats.hook_calls <- ctx.stats.hook_calls + 1;
  (* overhead model (Section 5): the inserted analysis function performs
     one atomic trace-buffer append per active thread — serialized
     globally — plus the entry's global-memory traffic *)
  let h = ctx.arch.hook in
  let busy = h.hook_base + (h.hook_per_lane * popcount mask) in
  let start = max issue !(ctx.hook_free) in
  ctx.hook_free := start + busy;
  start - issue + busy + h.hook_mem_txn

(* ----- one warp instruction ----- *)

(* Execute the next instruction of [warp] on [sm].

   Timing model: instructions issue in program order once their source
   registers are ready (scoreboard).  ALU results become ready after the
   unit latency while the warp keeps issuing (pipelined); global loads
   mark their destination ready when the fill arrives, so independent
   work — including further loads — overlaps outstanding misses
   (memory-level parallelism).  Local/shared accesses and control flow
   serialize the warp. *)
let step ctx (sm : sm) (warp : warp) =
  normalize warp;
  match warp.frames with
  | [] -> ()
  | frame :: _ -> (
    let entry = List.hd frame.stack in
    let pc = entry.pc in
    let mask = entry.mask in
    let df = frame.dfunc in
    let inst = Array.unsafe_get df.dbody pc in
    (* scoreboard: cycle at which every source register is ready *)
    let srcs_ready =
      let srcs = Array.unsafe_get df.dsrcs pc in
      let rr = frame.reg_ready in
      let acc = ref 0 in
      for j = 0 to Array.length srcs - 1 do
        let t = Array.unsafe_get rr (Array.unsafe_get srcs j) in
        if t > !acc then acc := t
      done;
      !acc
    in
    let base_t = max warp.ready_at sm.next_issue in
    if srcs_ready > base_t then begin
      (* operands still in flight: requeue without consuming an issue
         slot so other warps fill the latency *)
      ctx.stats.requeues <- ctx.stats.requeues + 1;
      warp.ready_at <- srcs_ready
    end
    else begin
    let issue = base_t in
    sm.next_issue <- issue + ctx.arch.issue_gap;
    warp.insts <- warp.insts + 1;
    ctx.stats.warp_insts <- ctx.stats.warp_insts + 1;
    ctx.stats.thread_insts <- ctx.stats.thread_insts + popcount mask;
    let arch = ctx.arch in
    let rr = frame.reg_ready in
    (* apply a predicate register to the active mask *)
    let masked pr pexpect =
      if pr < 0 then mask
      else begin
        let acc = ref 0 in
        let m = ref mask in
        while !m <> 0 do
          let bit = !m land (- !m) in
          m := !m lxor bit;
          if (fget_int frame ((pr lsl 5) + ntz bit) <> 0) = pexpect then
            acc := !acc lor bit
        done;
        !acc
      end
    in
    match inst with
    | Ptx.Isa.DMov { dst; src } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        dstore df frame base src frame base dst
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + 1);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DIop { op; dst; a; b } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let x = dev_int df frame base a and y = dev_int df frame base b in
        let v =
          match op with
          | Bitc.Instr.Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div ->
            if y = 0 then trap ctx ~pc ~loc:df.fsrc.locs.(pc) "integer division by zero"
            else x / y
          | Rem ->
            if y = 0 then trap ctx ~pc ~loc:df.fsrc.locs.(pc) "integer remainder by zero"
            else x mod y
          | And -> x land y
          | Or -> x lor y
          | Xor -> x lxor y
          | Shl -> x lsl (y land 31)
          | Lshr -> x lsr (y land 31)
          | Min -> min x y
          | Max -> max x y
        in
        fset_int frame ((dst lsl 5) + base) v
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + arch.alu_latency);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DFop { op; dst; a; b } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let x = dev_float df frame base a and y = dev_float df frame base b in
        let v =
          match op with
          | Bitc.Instr.Add -> x +. y
          | Sub -> x -. y
          | Mul -> x *. y
          | Div -> x /. y
          | Min -> Float.min x y
          | Max -> Float.max x y
          | Rem | And | Or | Xor | Shl | Lshr ->
            trap ctx ~pc ~loc:df.fsrc.locs.(pc) "bitwise operator on float operands"
        in
        fset_float frame ((dst lsl 5) + base) v
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + arch.alu_latency);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DUnop { op; dst; a; fl; sfu } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        (match op with
        | Bitc.Instr.Neg ->
          if fl then fset_float frame ((dst lsl 5) + base) (-.dev_float df frame base a)
          else fset_int frame ((dst lsl 5) + base) (-dev_int df frame base a)
        | Bitc.Instr.Not ->
          fset_int frame ((dst lsl 5) + base) (if dev_int df frame base a = 0 then 1 else 0)
        | Bitc.Instr.Int_to_float ->
          fset_float frame ((dst lsl 5) + base) (float_of_int (dev_int df frame base a))
        | Bitc.Instr.Float_to_int ->
          fset_int frame ((dst lsl 5) + base) (int_of_float (dev_float df frame base a))
        | Bitc.Instr.Sqrt -> fset_float frame ((dst lsl 5) + base) (sqrt (dev_float df frame base a))
        | Bitc.Instr.Exp -> fset_float frame ((dst lsl 5) + base) (exp (dev_float df frame base a))
        | Bitc.Instr.Log -> fset_float frame ((dst lsl 5) + base) (log (dev_float df frame base a))
        | Bitc.Instr.Fabs ->
          fset_float frame ((dst lsl 5) + base) (Float.abs (dev_float df frame base a)));
        ()
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + if sfu then arch.sfu_latency else arch.alu_latency);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DSetp { op; dst; a; b; fl } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let c =
          if fl then Float.compare (dev_float df frame base a) (dev_float df frame base b)
          else int_cmp (dev_int df frame base a) (dev_int df frame base b)
        in
        fset_int frame ((dst lsl 5) + base) (if compare_vals op c then 1 else 0)
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + arch.alu_latency);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DSelp { dst; cond; a; b } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let c = dev_int df frame base cond <> 0 in
        dstore df frame base (if c then a else b) frame base dst
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + arch.alu_latency);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DLd_local { dst; addr; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      let m = ref active in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let l = ntz bit in
        let base = l in
        let a = dev_int df frame base addr in
        bytes_read_reg frame.local.(l) ~addr:a ~width ~fl frame ((dst lsl 5) + base)
      done;
      Array.unsafe_set rr dst (issue + arch.alu_latency);
      warp.ready_at <- issue + arch.alu_latency
    | Ptx.Isa.DLd_shared { dst; addr; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      let shared = warp.cta.shared in
      let slen = Bytes.length shared in
      let counting = ctx.bankcount in
      let words = ctx.bank_scratch in
      let n = ref 0 in
      let m = ref active in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let a = dev_int df frame base addr in
        if a < 0 || a + width > slen then
          trap ctx ~pc ~loc:df.fsrc.locs.(pc)
            "shared load out of bounds: CTA %d warp %d lane %d reads [%d, \
             %d) of %d shared bytes"
            warp.cta.cta_linear warp.warp_id base a (a + width) slen;
        bytes_read_reg shared ~addr:a ~width ~fl frame ((dst lsl 5) + base);
        if counting then begin
          Array.unsafe_set words !n (a / arch.shared_bank_width);
          incr n
        end
      done;
      ctx.stats.shared_accesses <- ctx.stats.shared_accesses + 1;
      let extra =
        if counting then
          shared_conflicts ctx warp ~loc:df.fsrc.locs.(pc) ~kind:1 ~n:!n
            ~active
        else 0
      in
      Array.unsafe_set rr dst (issue + arch.shared_latency + extra);
      warp.ready_at <- issue + arch.shared_latency + extra
    | Ptx.Isa.DLd_global { dst; cg; addr; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      (* a fully predicated-off load must not touch the scoreboard:
         its twin with the complementary predicate owns [dst] *)
      if active = 0 then warp.ready_at <- issue + 1
      else begin
        let devmem = ctx.devmem in
        let scratch = ctx.addr_scratch in
        let n = ref 0 in
        (match width, fl with
        | 4, true ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            fset_float frame ((dst lsl 5) + base) (Devmem.read_f32 devmem a);
            scratch.(!n) <- a;
            incr n
          done
        | 1, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            fset_int frame ((dst lsl 5) + base) (Devmem.read_u8 devmem a);
            scratch.(!n) <- a;
            incr n
          done
        | 4, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            fset_int frame ((dst lsl 5) + base) (Devmem.read_i32 devmem a);
            scratch.(!n) <- a;
            incr n
          done
        | 8, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            fset_int frame ((dst lsl 5) + base) (Devmem.read_i64 devmem a);
            scratch.(!n) <- a;
            incr n
          done
        | _ ->
          let a = dev_int df frame (first_lane active) addr in
          raise (Devmem.Fault { addr = a; size = width; msg = "unsupported access width" }));
        let cache_l1 = (not cg) && ctx.l1_enabled in
        (* bypassed loads move 32 B sectors, not full L1 lines *)
        let granularity = if cache_l1 then arch.line_size else min 32 arch.line_size in
        let nlines =
          Coalesce.collect_unique_lines ~line_size:granularity ~width ~src:scratch
            ~off:0 ~n:!n ctx.line_scratch
        in
        ctx.stats.global_loads <- ctx.stats.global_loads + 1;
        ctx.stats.load_transactions <- ctx.stats.load_transactions + nlines;
        let arrival = ref issue in
        for k = 0 to nlines - 1 do
          arrival :=
            max !arrival
              (time_read_txn ctx sm ~cache_l1 ~granularity ~now:issue
                 (ctx.line_scratch.(k) * granularity))
        done;
        Array.unsafe_set rr dst !arrival;
        warp.ready_at <- issue + arch.alu_latency + ((nlines - 1) * arch.txn_issue)
      end
    | Ptx.Isa.DSt_local { addr; src; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      let m = ref active in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let l = ntz bit in
        let base = l in
        let a = dev_int df frame base addr in
        bytes_write_op df frame.local.(l) ~addr:a ~width ~fl frame base src
      done;
      warp.ready_at <- issue + arch.alu_latency
    | Ptx.Isa.DSt_shared { addr; src; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      let shared = warp.cta.shared in
      let slen = Bytes.length shared in
      let counting = ctx.bankcount in
      let words = ctx.bank_scratch in
      let n = ref 0 in
      let m = ref active in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let a = dev_int df frame base addr in
        if a < 0 || a + width > slen then
          trap ctx ~pc ~loc:df.fsrc.locs.(pc)
            "shared store out of bounds: CTA %d warp %d lane %d writes [%d, \
             %d) of %d shared bytes"
            warp.cta.cta_linear warp.warp_id base a (a + width) slen;
        bytes_write_op df shared ~addr:a ~width ~fl frame base src;
        if counting then begin
          Array.unsafe_set words !n (a / arch.shared_bank_width);
          incr n
        end
      done;
      ctx.stats.shared_accesses <- ctx.stats.shared_accesses + 1;
      let extra =
        if counting then
          shared_conflicts ctx warp ~loc:df.fsrc.locs.(pc) ~kind:2 ~n:!n
            ~active
        else 0
      in
      warp.ready_at <- issue + arch.shared_latency + extra
    | Ptx.Isa.DSt_global { addr; src; width; fl; pr; pexpect } ->
      let active = masked pr pexpect in
      entry.pc <- pc + 1;
      if active = 0 then warp.ready_at <- issue + 1
      else begin
        let devmem = ctx.devmem in
        let scratch = ctx.addr_scratch in
        let n = ref 0 in
        (match width, fl with
        | 1, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            Devmem.write_u8 devmem a (dev_int df frame base src land 0xff);
            scratch.(!n) <- a;
            incr n
          done
        | 4, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            Devmem.write_i32 devmem a (dev_int df frame base src);
            scratch.(!n) <- a;
            incr n
          done
        | 4, true ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            Devmem.write_f32 devmem a (dev_float df frame base src);
            scratch.(!n) <- a;
            incr n
          done
        | 8, false ->
          let m = ref active in
          while !m <> 0 do
            let bit = !m land (- !m) in
            m := !m lxor bit;
            let base = ntz bit in
            let a = dev_int df frame base addr in
            Devmem.write_i64 devmem a (dev_int df frame base src);
            scratch.(!n) <- a;
            incr n
          done
        | _ ->
          let a = dev_int df frame (first_lane active) addr in
          raise (Devmem.Fault { addr = a; size = width; msg = "unsupported access width" }));
        let nlines =
          Coalesce.collect_unique_lines ~line_size:arch.line_size ~width ~src:scratch
            ~off:0 ~n:!n ctx.line_scratch
        in
        for k = 0 to nlines - 1 do
          time_write_txn ctx sm ~now:issue (ctx.line_scratch.(k) * arch.line_size)
        done;
        ctx.stats.global_stores <- ctx.stats.global_stores + 1;
        ctx.stats.store_transactions <- ctx.stats.store_transactions + nlines;
        warp.ready_at <- issue + arch.alu_latency + ((nlines - 1) * arch.txn_issue)
      end
    | Ptx.Isa.DAtom { dst; addr; src; width; fl } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let base = ntz bit in
        let a = dev_int df frame base addr in
        (match width, fl with
        | 4, true ->
          let old = Devmem.read_f32 ctx.devmem a in
          Devmem.write_f32 ctx.devmem a (old +. dev_float df frame base src);
          fset_float frame ((dst lsl 5) + base) old
        | 1, false ->
          let old = Devmem.read_u8 ctx.devmem a in
          Devmem.write_u8 ctx.devmem a ((old + dev_int df frame base src) land 0xff);
          fset_int frame ((dst lsl 5) + base) old
        | 4, false ->
          let old = Devmem.read_i32 ctx.devmem a in
          Devmem.write_i32 ctx.devmem a (old + dev_int df frame base src);
          fset_int frame ((dst lsl 5) + base) old
        | 8, false ->
          let old = Devmem.read_i64 ctx.devmem a in
          Devmem.write_i64 ctx.devmem a (old + dev_int df frame base src);
          fset_int frame ((dst lsl 5) + base) old
        | _ ->
          raise (Devmem.Fault { addr = a; size = width; msg = "unsupported access width" }));
        time_write_txn ctx sm ~now:issue (a / arch.line_size * arch.line_size)
      done;
      ctx.stats.global_atomics <- ctx.stats.global_atomics + 1;
      entry.pc <- pc + 1;
      let cost = arch.atom_latency + (6 * (popcount mask - 1)) in
      Array.unsafe_set rr dst (issue + cost);
      warp.ready_at <- issue + cost
    | Ptx.Isa.DBra { target } ->
      entry.pc <- target;
      warp.ready_at <- issue + arch.branch_latency
    | Ptx.Isa.DCond_bra { pr; if_true; if_false; rpc } ->
      ctx.stats.branches <- ctx.stats.branches + 1;
      let mt = ref 0 in
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        if fget_int frame ((pr lsl 5) + ntz bit) <> 0 then mt := !mt lor bit
      done;
      let mt = !mt in
      let mf = mask land lnot mt in
      if mf = 0 then entry.pc <- if_true
      else if mt = 0 then entry.pc <- if_false
      else begin
        ctx.stats.divergent_branches <- ctx.stats.divergent_branches + 1;
        entry.pc <- rpc;
        frame.stack <-
          { pc = if_true; mask = mt; rpc }
          :: { pc = if_false; mask = mf; rpc }
          :: frame.stack
      end;
      warp.ready_at <- issue + arch.branch_latency
    | Ptx.Isa.DCall { callee; args; ret_dst } ->
      let cdf = Array.unsafe_get ctx.dec.dfuncs callee in
      entry.pc <- pc + 1;
      let new_frame = make_frame cdf ~init_mask:mask ~ret_dst in
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let l = ntz bit in
        let base = l and cbase = l in
        for i = 0 to Array.length args - 1 do
          dstore df frame base (Array.unsafe_get args i) new_frame cbase i
        done
      done;
      Array.fill new_frame.reg_ready 0 (Array.length new_frame.reg_ready)
        (issue + arch.call_latency);
      warp.frames <- new_frame :: warp.frames;
      warp.ready_at <- issue + arch.call_latency
    | Ptx.Isa.DRet { v } ->
      iter_lanes mask (fun l ->
          frame.retvals.(l) <-
            (match v with
            | Some op -> dev_value df frame l op
            | None -> Value.zero));
      (match warp.frames with
      | _ :: caller :: _ -> (
        match frame.ret_dst with
        | Some dst -> caller.reg_ready.(dst) <- issue + arch.call_latency
        | None -> ())
      | _ -> ());
      frame.stack <- List.tl frame.stack;
      normalize warp;
      warp.ready_at <- issue + arch.call_latency
    | Ptx.Isa.DBar ->
      entry.pc <- pc + 1;
      ctx.stats.barriers <- ctx.stats.barriers + 1;
      warp.status <- At_barrier;
      warp.barrier_arrival <- issue + 1;
      warp.cta.at_barrier <- warp.cta.at_barrier + 1;
      warp.ready_at <- issue + 1
    | Ptx.Isa.DSreg { dst; which } ->
      let m = ref mask in
      while !m <> 0 do
        let bit = !m land (- !m) in
        m := !m lxor bit;
        let l = ntz bit in
        fset_int frame ((dst lsl 5) + l) (sreg_value ctx warp l which)
      done;
      entry.pc <- pc + 1;
      Array.unsafe_set rr dst (issue + 1);
      warp.ready_at <- issue + 1
    | Ptx.Isa.DHook { hook } ->
      (* instrumentation cost serializes the warp: the inserted analysis
         call performs atomics and trace-buffer writes inline *)
      let cost = dispatch_hook ctx warp frame ~pc ~mask ~issue ~hook in
      entry.pc <- pc + 1;
      warp.ready_at <- issue + cost
    end)
