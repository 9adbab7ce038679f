(** SIMT interpreter: executes Graphene IR kernels on the simulated GPU.

    Two execution engines produce bit-identical event counters and
    profiler reports:

    - {!run_tree} walks the kernel's decomposition directly, re-resolving
      atomic specs and re-evaluating symbolic index arithmetic at every
      step. It is the executable reference semantics — the oracle every
      bit-identity suite compares against.
    - The [Bytecode] engine (the default) executes a compiled
      {!Lower.Plan.t} in its flattened form ({!Lower.Bytecode}): atomic
      resolution, cost lookup and index arithmetic all happened once, at
      lowering, and a dense int-tagged instruction array runs in a tight
      dispatch loop with preallocated scratch — no per-op allocation,
      which is also what makes multi-domain execution profitable (OCaml 5
      minor collections stop every domain).

    {!run_plan} selects between the engines ([?engine], default
    [Bytecode]); {!run} is the lower-then-execute convenience wrapper.

    All threads of a block advance in lock step; thread-dependent [If]
    conditions split the active mask (divergence); undecomposed specs
    dispatch to the matched atomic instruction's {!Semantics}. Event
    counters model coalescing (32-byte sectors) and shared-memory bank
    conflicts from the very addresses the kernel touches.

    {2 Parallel grids}

    All engines accept [?domains]: the grid's thread blocks split into
    work chunks sized from the measured per-block cost
    ({!Domain_pool.cost_chunk_size}); up to [domains] OCaml domains
    (default {!Domain_pool.default_domains}, i.e. the
    [GRAPHENE_SIM_DOMAINS] environment variable or the machine's
    recommended domain count) claim chunks in ascending block order.
    Per-chunk counters and profiler state merge back eagerly in that
    same ascending order, so counters, profiler reports, traces and
    output buffers are bit-identical at every domain count — see
    docs/PARALLELISM.md. When neither [?domains] nor the environment
    variable is given, grids the probe block measures as very cheap
    finish sequentially (same observables, by the merge contract). *)

exception Exec_error of string

(** [run_tree ~arch kernel ~args ~scalars] executes the kernel by walking
    its decomposition tree (the reference path).

    [args] binds every global parameter name to a caller-owned array
    (mutated in place); [scalars] binds the kernel's symbolic size
    parameters. Returns the accumulated event counters.

    [profiler], when given, additionally receives every event attributed
    to the spec (label / loop nest) that issued it — build one with
    {!Profiler.create} and render with {!Profiler.report} afterwards.

    Raises {!Exec_error} (or {!Memory.Fault}) on malformed kernels:
    unmatched atomic specs, thread-dependent loop bounds, divergent
    collective instructions, out-of-bounds accesses. *)
val run_tree :
  arch:Graphene.Arch.t ->
  ?profiler:Profiler.t ->
  ?domains:int ->
  Graphene.Spec.kernel ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t

(** How {!run_plan} executes a compiled plan. [Tree] re-interprets the
    plan's source kernel through {!run_tree} (the reference semantics);
    [Bytecode] runs the flattened instruction array. Both are observably
    identical. *)
type engine =
  | Tree
  | Bytecode

val engine_name : engine -> string

(** The engine used when [?engine] is not given: [Bytecode]. *)
val default_plan_engine : unit -> engine

(** [run_plan plan ~args ~scalars] executes a compiled plan (see
    {!Lower.Pipeline.lower}). Same contract and error behavior as
    {!run_tree}; lowering-time diagnoses ([fail] instructions) raise
    {!Exec_error} only if control flow reaches them. Lower once, then
    call this for every execution (autotuning, repeated benchmark
    runs). [engine] defaults to {!default_plan_engine}. *)
val run_plan :
  ?profiler:Profiler.t ->
  ?domains:int ->
  ?engine:engine ->
  Lower.Plan.t ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t

(** [run ~arch kernel ~args ~scalars] lowers the kernel (through
    {!Lower.Pipeline.lower_cached}, so repeated launches of structurally
    identical kernels — including scalar-parameter variants — reuse the
    plan) and executes it. *)
val run :
  arch:Graphene.Arch.t ->
  ?profiler:Profiler.t ->
  ?domains:int ->
  ?engine:engine ->
  Graphene.Spec.kernel ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t
