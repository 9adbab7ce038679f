(** Kernel profiler: attributes every simulated hardware event back to the
    spec that issued it.

    The interpreter maintains a {e scope stack} while walking a kernel's
    decomposition — one frame per labeled decomposed spec and one per loop
    variable — and reports each executed atomic spec, memory batch and
    barrier to this module. Events are attributed to the row keyed by

    {v <scope>/<scope>/.../<leaf> # <instruction> v}

    where [<leaf>] is the issuing spec's label (or its kind name when
    unlabeled; see {!Graphene.Spec.leaf_name}). The aggregated report is the
    simulator's stand-in for an Nsight-Compute "source counters" page: per
    spec instruction mix, bytes, DRAM sectors, coalescing efficiency, bank
    conflicts — plus a kernel-level roofline placement from {!Perf_model}.

    An optional {!Trace} sink receives a timeline of the same events for
    [chrome://tracing]. *)

type t

val create : ?trace:Trace.t -> ?detail:bool -> unit -> t

val trace : t -> Trace.t option

(** The trace sink, only when [detail] was set — the interpreter passes
    this to {!Semantics.exec} for per-instance instruction events. *)
val detail_trace : t -> Trace.t option

(** {1 Parallel execution} *)

(** [fork p] — an empty profiler with the same configuration as [p] (fresh
    trace sink iff [p] has one, same detail flag), for a domain to record
    its own contiguous block range into. *)
val fork : t -> t

(** [merge_into dst src] folds [src]'s rows into [dst] — matching rows by
    key, creating missing ones in [src]'s first-issue order — and appends
    [src]'s trace after [dst]'s (see {!Trace.merge_into}). When [src]
    covers the block range that sequentially follows [dst]'s, the merged
    profile is identical to one recorded by a single sequential pass. *)
val merge_into : t -> t -> unit

(** {1 Hooks called by the interpreter} *)

(** New thread block: resets the scope stack. Block identity is {e not}
    recorded here — every trace-emitting hook below takes the issuing
    block explicitly ([~block]), so events recorded concurrently by
    per-domain profilers can never be misattributed by ambient state. *)
val begin_block : t -> unit

(** Push/pop a scope frame (a loop variable or a labeled decomposition). *)
val enter_frame : t -> string -> unit

val exit_frame : t -> unit

(** [begin_atomic p ~label ~kind ~instr] — an undecomposed spec dispatched
    to atomic instruction [instr]; subsequent events attribute to its row. *)
val begin_atomic : t -> label:string -> kind:string -> instr:string -> unit

(** Compute/issue cost of the current atomic spec, mirroring the
    interpreter's counter accounting. *)
val on_cost :
  t -> instr:string -> tc:bool -> flops:int -> instructions:int ->
  instances:int -> unit

(** One warp-synchronous global/shared access batch of the current spec,
    over the first [len] entries of a reusable address buffer (no
    per-batch allocation). [block] is the issuing thread block (trace
    event pid). *)
val on_global_batch :
  t ->
  block:int ->
  store:bool ->
  bytes:int ->
  warp:int ->
  int array ->
  len:int ->
  unit

val on_shared_batch :
  t ->
  block:int ->
  store:bool ->
  bytes:int ->
  warp:int ->
  int array ->
  len:int ->
  unit

(** One executed instance batch (a warp or collective group) — emits a
    duration event on the trace timeline. *)
val exec_event : t -> block:int -> warp:int -> lanes:int -> dur:int -> unit

val on_barrier : t -> block:int -> unit

(** {1 Reports} *)

type row =
  { path : string  (** scope path, ["/"]-separated *)
  ; kind : string  (** spec kind, e.g. ["Move"] *)
  ; instr : string  (** matched atomic instruction *)
  ; instances : int
  ; instructions : int
  ; flops : int
  ; tc_flops : int
  ; global_load_bytes : int
  ; global_store_bytes : int
  ; global_sectors : int
  ; coalescing : float
        (** useful bytes / (32 B x sectors); 1.0 for rows with no global
            traffic *)
  ; shared_load_bytes : int
  ; shared_store_bytes : int
  ; shared_bank_conflicts : int
  }

type report =
  { kernel : string
  ; arch : string
  ; grid_blocks : int
  ; cta_threads : int
  ; rows : row list  (** first-issue order (deterministic) *)
  ; totals : row  (** whole-kernel counters (path ["total"]) *)
  ; barriers : int
  ; instr_mix : (string * int) list  (** sorted by instruction name *)
  ; attributed_instructions : float  (** fraction of {!totals} covered by rows *)
  ; attributed_bytes : float
  ; async_copies : int  (** cp.async instances issued (whole run) *)
  ; async_commits : int  (** cp.async.commit_group executions *)
  ; async_waits : int  (** cp.async.wait_group executions *)
  ; async_mean_inflight : float
        (** mean committed groups in flight at the wait points
            ({!Counters.async_mean_inflight}) — divide by the plan's
            pipeline depth for queue occupancy *)
  ; async_max_inflight : int  (** deepest the copy queue ever got *)
  ; estimate : Perf_model.estimate option  (** when a machine was given *)
  ; bound : string  (** ["compute"] | ["dram"] | ["smem"] | ["launch"] *)
  ; arith_intensity : float  (** flops per global byte *)
  }

(** Build the report from the profile of one {!Interp.run}. [counters] is
    that run's returned totals; [machine] enables the roofline placement. *)
val report :
  t ->
  kernel:Graphene.Spec.kernel ->
  arch:Graphene.Arch.t ->
  counters:Counters.t ->
  ?machine:Machine.t ->
  ?scalars:(string * int) list ->
  unit ->
  report

(** Deterministic JSON encoding (fixed key order, rows in first-issue
    order, instruction mix sorted by name, floats printed with [%.6g]). *)
val report_to_json : report -> string

(** Human-readable per-spec table, totals and roofline summary. *)
val pp_report : Format.formatter -> report -> unit
