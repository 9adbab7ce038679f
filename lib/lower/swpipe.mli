(** Software pipelining of async staging loops (paper Section 6.3).

    The pass recognises the canonical single-buffered staging loop that
    {!Kernels.Staging} emits on cp.async architectures —

    {v
    for kk in 0..T:
      <stage moves GL -> SH>        (cp.async: deferred writes)
      cp.async.commit_group
      cp.async.wait_group 0
      __syncthreads()
      <compute reading the staged tiles>
      __syncthreads()
    v}

    — and rewrites it into an [N]-stage rotating-buffer pipeline: each
    staged shared tile grows to [N] slots, a prologue issues the first
    [N-1] tile copies without waiting, and the steady-state loop
    prefetches tile [kk+N-1] into slot [(kk+N-1) mod N] before computing
    on slot [kk mod N] behind a [wait_group (N-1)]. The deferred-copy
    queue semantics (see {!Gpu_sim.Memory}) make the copies overlap the
    compute they no longer block on.

    Rotation legality is derived from the layout algebra: a slot stride
    is the staging tile's cosize rounded up to the rotation granule
    (the swizzle window and the 128-byte cp.async alignment), and
    {!Shape.Layout.logical_divide} of the [N]-slot arena by one slot
    must succeed with the slot origins as mode 1 — its stride is the
    rotation step applied to every view of the buffer.

    The rewrite is audited by the bit-identity oracle on both engines
    (test/test_swpipe.ml): outputs and every pre-existing counter field
    must match the unpipelined lowering exactly; only the async-queue
    occupancy counters may differ. *)

(** Why a loop (or the whole kernel) was left unpipelined. Mirrors
    {!Vectorize.reason}: every refusal names the legality rule that
    fired. *)
type reason =
  | Disabled  (** requested stage count <= 1 *)
  | Not_async
      (** the staging loop copies eagerly (no commit/wait fence), so
          there is nothing to overlap *)
  | No_stage_loop  (** no constant-trip staging loop found *)
  | Loop_shape of string
      (** a fenced loop that is not the canonical
          stage/fence/barrier/compute/barrier shape *)
  | Too_few_tiles of int  (** trip count < 2: nothing to overlap *)
  | Buffer_escapes of string
      (** a staged buffer is referenced outside the loop, so rotating
          it would change those readers *)
  | Non_divisible of string
      (** [logical_divide] of the slot arena by the slot failed: the
          granule does not tile the rotated buffer *)
  | Too_little_smem of int
      (** rotated shared footprint (bytes) exceeds the architecture's
          per-block shared memory *)
  | Queue_depth of int
      (** the architecture's async-copy queue is shallower than the
          requested stage count *)

val reason_to_string : reason -> string

(** One pipelined loop after a successful rewrite. *)
type pipelined =
  { p_var : string  (** loop variable of the rewritten loop *)
  ; p_trip : int  (** trip count [T] *)
  ; p_stages : int  (** effective stage count (clamped to [T]) *)
  ; p_buffers : (string * int) list
        (** rotated buffers with their slot stride, in scalars *)
  ; p_stage_bytes : int
        (** shared bytes staged per iteration across rotated buffers *)
  ; p_queue_bound : int
        (** peak committed async-copy groups in flight *)
  }

type verdict =
  { loops : pipelined list  (** every loop rewritten, in program order *)
  ; refusals : (string * reason) list
        (** per-loop refusals, keyed by loop variable; [("-", r)] when
            the kernel never reached loop matching *)
  }

(** ["swpipe(kk): 3 stages ..."] or ["scalar:<reason>"]-style summary,
    one line per loop. *)
val verdict_to_string : verdict -> string

(** [rewrite arch ~stages kernel] returns the (possibly) rewritten
    kernel and the verdict. [stages <= 1] refuses every loop with
    {!Disabled} and returns the kernel unchanged; the rewrite never
    fails — illegal loops are refused and left intact. *)
val rewrite :
  Graphene.Arch.t ->
  stages:int ->
  Graphene.Spec.kernel ->
  Graphene.Spec.kernel * verdict
