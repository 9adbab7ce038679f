(** The execution-plan IR produced by {!Pipeline.lower} and executed by
    the simulator's [Interp.run_plan].

    A plan is lowered once and executed many times. Its body is one dense
    int-tagged instruction array ({!bytecode}; layout in {!Bytecode}):
    every leaf spec is already paired with its atomic instruction
    (resolved exactly once),
    costs and profiler attribution strings are precomputed, all symbolic
    index arithmetic is compiled to closures over one dense [int array]
    environment (see {!Slots}, {!Expr_comp}), and every compiled view and
    member function carries its slot-dependence tier (see {!Depcheck}) so
    the executor can hoist launch-, block- and loop-invariant values out
    of the per-thread hot path. *)

type view =
  { v_id : int  (** dense plan-wide id, indexes the executor's caches *)
  ; v_ts : Gpu_tensor.Tensor.t
  ; v_mem : Gpu_tensor.Memspace.t
  ; v_elt_bytes : int
  ; v_batch_bytes : int
  ; v_offsets : Expr_comp.cview
  ; v_addr0 : Expr_comp.cexpr
        (** first scalar offset ({!Expr_comp.no_addr} when the view
            enumerates no scalars) — all the address-batch accounting
            needs, without materializing the full enumeration *)
  ; v_dep : Depcheck.dep
  ; v_dep_slots : int array
        (** slots of [v_dep.d_vars]; the executor snapshots these and
            reuses cached offsets while the values are unchanged *)
  ; v_vec : Vectorize.verdict
        (** this view's own widening capability (diagnostics) *)
  ; v_vec_width : int
        (** executed vector width: the enclosing atomic's width (1 =
            scalar) — what transaction accounting must charge *)
  }

type atomic =
  { a_id : int  (** dense plan-wide id, indexes the executor's group cache *)
  ; a_spec : Graphene.Spec.t
  ; a_instr : Graphene.Atomic.instr
  ; a_cost : Graphene.Atomic.cost
  ; a_is_tc : bool
  ; a_is_async : bool
        (** a cp.async data movement: execution defers the destination
            write onto the block's async-copy queue, to land at the next
            draining [cp.async.wait_group] *)
  ; a_dur : int
  ; a_label : string
  ; a_kind : string
  ; a_per_thread : bool
  ; a_ins : view list
  ; a_outs : view list
  ; a_members : (int array -> int -> int array) option
  ; a_members_dep : Depcheck.dep option
        (** dependence tier of [a_members] (collectives only) *)
  ; a_members_slots : int array
        (** snapshot slots for the member-function group cache *)
  ; a_ldmatrix : (int * bool) option
  ; a_ld_rows : (Expr_comp.cexpr array array * int) option
        (** compiled first-row byte addresses per matrix + element size *)
  ; a_lookup : string -> int option
  ; a_vec : Vectorize.verdict
        (** the vectorize pass's decision: width, or why it refused *)
  ; a_vec_width : int  (** executed vector width (1 = scalar) *)
  ; a_fastcopy : bool
        (** widened and full-span contiguous on both sides: the executor
            may move each thread's batch as one contiguous copy *)
  ; a_banks : (string * int) list
        (** statically conflicted shared views: (view name, extra
            conflict cycles per CTA-wide batch) *)
  }

type alloc =
  { al_buffer : string
  ; al_mem : Gpu_tensor.Memspace.t
  ; al_dtype : Gpu_tensor.Dtype.t
  ; al_size : int  (** elements; shared sizes are rounded to the swizzle window *)
  }

(** Opcodes of [bc_code]; {!Bytecode} re-exports them with the
    instruction layout. *)

val op_exec : int
val op_loop : int
val op_branch : int
val op_branch_div : int
val op_barrier : int
val op_frame : int
val op_fail : int
val op_commit : int
val op_wait : int

(** Words an instruction occupies before its body (opcode included),
    indexed by opcode: bodies follow immediately, so stepping by these
    visits every instruction once. *)
val header_words : int array

(** A plan's executable body: one dense int-tagged instruction array
    plus side tables, emitted directly by the compile pass through
    {!Bytecode}'s builder. The executor dispatches with a tight [match]
    over [bc_code] — no per-op closure chasing. A lowering-time
    diagnosis is a [fail] instruction whose error fires only if control
    flow reaches it (lazy, like the tree interpreter). *)
type bytecode =
  { bc_code : int array
  ; bc_atomics : atomic array
        (** indexed by [a_id]; ids are assigned in program order, so this
            is also the order the atomics appear in [bc_code] *)
  ; bc_exprs : Expr_comp.cexpr array  (** loop bound pool *)
  ; bc_conds : (int array -> bool) array  (** branch predicate pool *)
  ; bc_labels : string array  (** loop var / frame label pool *)
  ; bc_fails : string array  (** lazy failure message pool *)
  ; bc_max_depth : int
        (** max divergent-branch nesting: sizes the executor's
            preallocated taken/not-taken mask arena *)
  }

(** What the swpipe pass did to this plan. [pl_stages = 1] means the
    plan runs single-buffered (pass off, refused, or nothing matched);
    [pl_note] carries the per-loop verdict/refusal lines in
    {!Swpipe.verdict_to_string} format. *)
type pipelining =
  { pl_stages : int  (** effective stage count across pipelined loops *)
  ; pl_buffers : (string * int) list
        (** rotated shared buffers with their slot stride in scalars *)
  ; pl_stage_bytes : int  (** shared bytes staged per steady iteration *)
  ; pl_queue_bound : int  (** peak committed async-copy groups in flight *)
  ; pl_note : string
  ; pl_refusals : (string * string) list
        (** per-loop refusals as [(loop var, reason slug)] — the
            structural form of the refusal lines in [pl_note], consumed
            as prune telemetry by schedule search *)
  }

(** The [pl_stages = 1] placeholder. *)
val unpipelined : pipelining

type t =
  { kernel : Graphene.Spec.kernel
  ; arch : Graphene.Arch.t
  ; nslots : int
  ; scalar_slots : (string * int) list
  ; cta_size : int
  ; grid_size : int
  ; allocs : alloc list
  ; body : bytecode
  ; n_views : int  (** total views = size of the executor's view cache *)
  ; warp_tids : int array array
        (** precompiled warp schedule: thread ids of each warp of the
            CTA, ascending; built once per plan *)
  ; diagnostics : string list
  ; vec_enabled : bool  (** whether the vectorize pass was allowed to widen *)
  ; pipelining : pipelining  (** software-pipelining outcome *)
  }

(** View counts per dependence tier: [(launch, block, loop, thread)]. *)
val tier_counts : bytecode -> int * int * int * int

(** [(widened, per-thread moves)] atomic counts. *)
val vec_counts : bytecode -> int * int

(** [(atomics flagged, total extra cycles per CTA-wide batch)] of the
    static bank-conflict lint. *)
val bank_warning_counts : bytecode -> int * int

(** Histogram of the vectorize pass's refusal reasons over per-thread
    moves — [(reason slug, count)], sorted by slug. Prune/refusal
    telemetry for schedule search. *)
val refusal_histogram : bytecode -> (string * int) list

(** Bytes-weighted mean vector width over the global views of per-thread
    moves (structural, per atomic); [None] without global move traffic.
    Feeds {!Gpu_sim.Perf_model}'s [vec_width]. *)
val global_vec_width : bytecode -> float option

(** The plan listing: header comments (tiers, vectorize, pipelining,
    diagnostics), allocations, then the body one instruction per line
    with structured ops' bodies indented. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string
