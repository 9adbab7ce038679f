(** The lowering pipeline: [Spec.kernel] -> {!Plan.t} in seven named
    passes (validate, flatten, resolve, depcheck, vectorize, swpipe,
    compile); compile emits the plan's bytecode body directly. See
    docs/LOWERING.md.

    The depcheck pass classifies every leaf quantity (view offset
    enumerations, collective member functions) by slot-dependence tier
    (launch / block / loop / thread — see {!Depcheck}); the vectorize
    pass proves per-thread unit-stride contiguity and alignment from the
    static stride/offset structure, widening eligible moves to width-2/4
    vector atomics (see {!Vectorize}); the compile pass carries the
    tiers, vector widths and bank-conflict lints onto the plan so the
    executor can hoist, cache and batch accordingly.

    The pipeline promises to call [Atomic.find] exactly once per leaf
    spec: resolution happens at lowering, never during execution. An
    unmatched leaf (or a loop with thread-dependent bounds) lowers to a
    [fail] instruction, so the error fires only if control flow reaches
    it — the same lazy error semantics as the tree interpreter. *)

(** [lower ?log ?vectorize ?stages arch kernel] runs the full pipeline.
    When [log] is given it receives the rendered IR after every pass
    (plus the ["input"] kernel listing), in order. [vectorize] controls
    the widening pass; it defaults to on. A disabled
    lowering still runs the pass for its diagnostics and bank lint, but
    every atomic stays scalar. [stages] controls the software-pipelining
    pass (see {!Swpipe}): it defaults to the [GRAPHENE_SWPIPE_STAGES]
    environment variable, or 1 (off); at [stages >= 2] eligible async
    staging loops are rewritten to rotating-buffer pipelines, and the
    swpipe outcome is recorded in the plan's [pipelining] field either
    way. *)
val lower :
  ?log:Pass.log ->
  ?vectorize:bool ->
  ?stages:int ->
  Graphene.Arch.t ->
  Graphene.Spec.kernel ->
  Plan.t

(** {1 Helpers shared with the executor and the code generator} *)

(** [starts_with prefix s] *)
val starts_with : string -> string -> bool

(** Whether an index expression mentions [threadIdx.x]. *)
val mentions_tid : Shape.Int_expr.t -> bool

(** Whether a predicate mentions [threadIdx.x] (a divergent branch). *)
val pred_mentions_tid : Graphene.Spec.pred -> bool

(** Coordinates of the j-th 8x8 matrix among an ldmatrix source's outer
    tiles, leftmost-fastest (the hardware's matrix order). *)
val tile_coords : int list -> int -> int list

(** Elements to allocate for a shared tensor: its cosize rounded up to
    the swizzle window. *)
val shared_alloc_size : Gpu_tensor.Tensor.t -> int

(** The unmatched-leaf diagnostic: the tree interpreter's message plus
    up to six same-family registry candidates (exposed for tests). *)
val unmatched_message : Graphene.Arch.t -> Graphene.Spec.t -> string

(** {1 Plan cache}

    Lowering is pure in [(arch, vectorize, stages, kernel)], and a
    kernel mentions its scalar parameters only by name (values bind per
    launch), so plans memoize under structural kernel equality — i.e.
    modulo scalar parameter values. The cache is process-wide and
    thread-safe (the autotuner lowers candidates from several domains
    concurrently). *)

(** [lower_cached arch kernel] returns the memoized plan and whether it
    was a cache hit. Passing [?log] bypasses the cache entirely (the
    caller wants the per-pass renders) and does not touch the
    statistics. [vectorize] and [stages] default as in {!lower} and are
    part of the cache key. *)
val lower_cached :
  ?log:Pass.log ->
  ?vectorize:bool ->
  ?stages:int ->
  Graphene.Arch.t ->
  Graphene.Spec.kernel ->
  Plan.t * bool

type cache_stats =
  { hits : int
  ; misses : int
  }

(** Cumulative hit/miss counts since start (or the last {!cache_clear}). *)
val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit
