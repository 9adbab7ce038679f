(** Simulated GPU memory: global buffers, per-block shared memory, and
    per-thread register files, all addressed through tensor views.

    Values are stored as OCaml floats; writes are rounded through the
    destination view's element type (fp16/bf16), so simulated numerics match
    what mixed-precision GPU kernels produce. *)

(** The global-memory arena, shared by every block — and, when blocks
    execute on multiple domains, by every domain. It is written through
    {!bind_arena} before execution starts; afterwards only
    its arrays' cells are mutated, by blocks writing disjoint cells (as on
    real hardware), so sharing it across domains is safe. *)
type global

(** A per-domain memory handle: the shared {!global} arena plus
    block-local state (shared-memory arrays and per-thread register
    files) that is replaced wholesale at each block boundary. *)
type t

exception Fault of string

val create_global : unit -> global

(** [bind_arena g name data] — attach a caller-owned array as a global
    buffer; the kernel mutates it in place. *)
val bind_arena : global -> string -> float array -> unit

(** A fresh handle over [global] with empty block-local state and no
    declarations — each domain executing a block range makes its own. *)
val of_global : global -> t

(** {1 Buffer management} *)

(** Declare a shared / register allocation (from [Alloc] statements). *)
val declare_shared : t -> string -> int -> unit

val declare_regs : t -> string -> int -> unit

(** Install fresh (empty) block-local state — shared buffers and register
    files — at a block boundary. Replaces the old [reset_block] mutation:
    block-local state is a separate value, never shared across blocks or
    domains. *)
val new_block : t -> unit

(** {1 The cp.async queue}

    Per-block deferred-copy state. A cp.async issues as a thunk that will
    land its (already-read, counter-accounted) data in shared memory when
    drained; commit seals the issued-but-uncommitted copies into one
    in-flight group (possibly empty), and wait drains oldest groups until
    at most [n] remain. {!new_block} discards any leftovers along with
    the shared arrays they would have written. *)

(** Enqueue one deferred copy (issued, not yet committed). *)
val async_stage : t -> (unit -> unit) -> unit

(** Seal pending copies into one committed group; empty groups allowed. *)
val async_commit : t -> unit

(** Committed groups currently in flight. *)
val async_inflight : t -> int

(** [async_wait t n] — drain oldest committed groups (running their
    thunks in issue order) until at most [n] remain in flight. *)
val async_wait : t -> int -> unit

(** {1 View access}

    [env] must bind every free variable of the view, including
    ["threadIdx.x"] / ["blockIdx.x"]. *)

(** Element offsets of the view's scalars (innermost fastest). *)
val offsets : t -> env:(string -> int) -> Gpu_tensor.Tensor.t -> int array

(** {1 Precomputed-offset access}

    Accessors taking the view's element offsets directly (as produced by
    {!offsets} or a compiled execution plan's offset closures). An offset
    outside the backing buffer raises {!Fault}. *)

val read_offs : t -> tid:int -> Gpu_tensor.Tensor.t -> int array -> float array

val write_offs :
  t -> tid:int -> Gpu_tensor.Tensor.t -> int array -> float array -> unit

(** {2 Allocation-free forms}

    Fill/drain caller-provided scratch buffers instead of allocating.
    Checks, rounding and fault messages are identical to {!read_offs} /
    {!write_offs}; the instruction semantics use these on their hot paths
    so a scratch buffer is reused across every lane of a warp. *)

(** [read_offs_into t ~tid v offs dst] — gather [offs] into
    [dst.(0 .. length offs - 1)]. [dst] must be at least as long. *)
val read_offs_into :
  t -> tid:int -> Gpu_tensor.Tensor.t -> int array -> float array -> unit

(** [read_sub_offs_into t ~tid v offs ~pos ~len dst] — gather the slice
    [offs.(pos .. pos+len-1)] into [dst.(0 .. len-1)], with the same
    range guard (and exception) as [Array.sub offs pos len]. *)
val read_sub_offs_into :
  t ->
  tid:int ->
  Gpu_tensor.Tensor.t ->
  int array ->
  pos:int ->
  len:int ->
  float array ->
  unit

(** [write_offs_n t ~tid v offs data ~len] — scatter
    [data.(0 .. len-1)] to [offs]; faults exactly like {!write_offs}
    would on a [data] of length [len]. [write_offs] is the [len = length
    data] instance. *)
val write_offs_n :
  t ->
  tid:int ->
  Gpu_tensor.Tensor.t ->
  int array ->
  float array ->
  len:int ->
  unit

(** {2 Scalar access}

    For executors that read and write one element per thread straight
    from a resolved buffer, keeping floats unboxed. *)

(** [buffer t ~tid v] — the array backing [v] (for a register view, the
    register file of [tid]), allocating a declared shared or register
    buffer on first use. Faults exactly like the accessors above on an
    unknown or undeclared buffer. *)
val buffer : t -> tid:int -> Gpu_tensor.Tensor.t -> float array

(** [checked buf v off] — fault exactly like the accessors above when
    [off] lies outside [buf]; a no-op otherwise. *)
val checked : float array -> Gpu_tensor.Tensor.t -> int -> unit

(** A resolved buffer handle: the view's backing array and element type,
    looked up once. Hoists buffer resolution out of per-element loops
    (e.g. the ldmatrix fragment distribute, which writes two scalars per
    lane per tile). Valid for the current block only — resolve again
    after {!new_block}. *)
type slab

val slab : t -> tid:int -> Gpu_tensor.Tensor.t -> slab

(** [write_k_slab sl v offs k x] — write scalar [k] of the view (at
    [offs.(k)]) into the resolved buffer, rounding through the view's
    element type; faults on an out-of-range [k] or offset. *)
val write_k_slab : slab -> Gpu_tensor.Tensor.t -> int array -> int -> float -> unit

(** {2 Contiguous-span forms}

    For vector-widened full-span moves, whose offset enumeration is
    provably [base, base + len): skip materializing the offsets. Bounds
    checks, faults, write rounding and element order are identical to
    the [*_offs] forms on the offsets [base; base+1; ...], so a widened
    move faults, rounds and stores exactly as its scalar lowering. *)

(** [read_contig_into t ~tid v ~base ~len dst] — gather
    [base .. base+len-1] into [dst.(0 .. len-1)]. *)
val read_contig_into :
  t -> tid:int -> Gpu_tensor.Tensor.t -> base:int -> len:int -> float array -> unit

(** [write_contig t ~tid v ~base data ~len] — scatter [data.(0 .. len-1)]
    to [base .. base+len-1], rounding through the view's element type. *)
val write_contig :
  t -> tid:int -> Gpu_tensor.Tensor.t -> base:int -> float array -> len:int -> unit
