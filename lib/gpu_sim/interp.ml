module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module P = Lower.Plan
module Slots = Lower.Slots

exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(* [counters] and [prof] are mutable so a long-lived per-domain executor
   state can be re-targeted at a fresh sink per work chunk (see
   [run_grid]): the expensive parts of the state — memory arenas,
   hoisting caches, scratch — persist across chunks, only the
   observable sinks swap. *)
type ctx =
  { arch : Graphene.Arch.t
  ; mem : Memory.t
  ; mutable counters : Counters.t
  ; cta_size : int
  ; mutable prof : Profiler.t option
  ; mutable block : int  (* blockIdx.x of the block currently executing *)
  }

let sem_trace ctx =
  match ctx.prof with Some p -> Profiler.detail_trace p | None -> None

let with_tid env tid v = if String.equal v "threadIdx.x" then tid else env v

let rec eval_pred env = function
  | Spec.Cmp (r, a, b) ->
    let x = E.eval ~env a and y = E.eval ~env b in
    (match r with
    | Spec.Lt -> x < y
    | Spec.Le -> x <= y
    | Spec.Eq -> x = y
    | Spec.Ne -> x <> y
    | Spec.Gt -> x > y
    | Spec.Ge -> x >= y)
  | Spec.And (a, b) -> eval_pred env a && eval_pred env b
  | Spec.Or (a, b) -> eval_pred env a || eval_pred env b
  | Spec.Not p -> not (eval_pred env p)

(* Group active threads by warp (ascending), modeling warp-synchronous
   issue for address batching. *)
let warps_of active =
  let by_warp = Hashtbl.create 8 in
  List.iter
    (fun tid ->
      let w = tid / 32 in
      Hashtbl.replace by_warp w
        (tid :: Option.value ~default:[] (Hashtbl.find_opt by_warp w)))
    active;
  let warps = Hashtbl.fold (fun w tids acc -> (w, List.rev tids) :: acc) by_warp [] in
  List.sort Stdlib.compare warps

(* ===== the tree-walking reference interpreter =====

   [run_tree] is the original direct interpreter: it re-resolves atomic
   specs and re-evaluates all symbolic index arithmetic at every step.
   It is kept as the executable reference the compiled-plan path
   ([run_plan], below) is tested bit-identical against. *)

(* First-scalar byte address of a view for one thread, or None for register
   views (registers have no shared address space to model). *)
let first_byte_address ctx env tid (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Register -> None
  | Ms.Global | Ms.Shared ->
    let offs = Memory.offsets ctx.mem ~env:(with_tid env tid) v in
    if Array.length offs = 0 then None
    else Some (offs.(0) * Dt.size_bytes (Ts.dtype v))

(* Per-domain address scratch for the tree walk's warp batches (the
   batch recorders read the first [len] entries of a reused buffer). *)
let s_addrs = Domain.DLS.new_key (fun () -> ref (Array.make 32 0))

let addr_scratch n =
  let r = Domain.DLS.get s_addrs in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

let record_view_batch ctx env tids ~store (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Register -> ()
  | Ms.Global | Ms.Shared ->
    let n = try Ts.num_scalars_int v with Invalid_argument _ -> 1 in
    let bytes = n * Dt.size_bytes (Ts.dtype v) in
    let addrs = addr_scratch (List.length tids) in
    let len =
      List.fold_left
        (fun len tid ->
          match first_byte_address ctx env tid v with
          | Some a ->
            addrs.(len) <- a;
            len + 1
          | None -> len)
        0 tids
    in
    if len > 0 then begin
      let warp = match tids with t :: _ -> t / 32 | [] -> 0 in
      (* One scalar request per scalar index per warp batch: the tree
         path never widens, so this is the width-1 baseline the plan
         executor's scalar-forced lowering must reproduce exactly. *)
      Counters.record_requests ctx.counters
        ~global:(Ms.equal v.Ts.mem Ms.Global)
        ~elems:n ~width:1 ~bytes:0;
      if Ms.equal v.Ts.mem Ms.Global then begin
        Counters.record_global_batch ctx.counters ~store ~bytes addrs ~len;
        Option.iter
          (fun p ->
            Profiler.on_global_batch p ~block:ctx.block ~store ~bytes ~warp
              addrs ~len)
          ctx.prof
      end
      else begin
        Counters.record_shared_batch ctx.counters ~store ~bytes addrs ~len;
        Option.iter
          (fun p ->
            Profiler.on_shared_batch p ~block:ctx.block ~store ~bytes ~warp
              addrs ~len)
          ctx.prof
      end
    end

(* ----- cp.async queue ops (shared by both engines) -----

   Commit/wait are statements, not atomic specs: they touch no counter a
   pre-pipelining kernel has (instructions, instr_mix, bytes, ...), only
   the async_* fields — which is what keeps a pipelined lowering
   bit-identical to its unpipelined twin on every pre-existing counter.
   The in-flight depth is sampled at each wait BEFORE it drains (the
   steady-state occupancy the perf model consumes), and the peak is
   tracked at each commit. *)

let exec_commit_group ctx =
  Memory.async_commit ctx.mem;
  let c = ctx.counters in
  c.Counters.async_commits <- c.Counters.async_commits + 1;
  let inflight = Memory.async_inflight ctx.mem in
  if inflight > c.Counters.async_max_inflight then
    c.Counters.async_max_inflight <- inflight

let exec_wait_group ctx n =
  let c = ctx.counters in
  c.Counters.async_waits <- c.Counters.async_waits + 1;
  c.Counters.async_inflight_sum <-
    c.Counters.async_inflight_sum + Memory.async_inflight ctx.mem;
  Memory.async_wait ctx.mem n

(* Cost accounting for [instances] issues of one atomic instruction
   (shared by both engines; the plan precomputes [name]/[is_tc]/
   [is_async] and the cost at lowering). *)
let account_cost ctx ~name ~is_tc ~is_async (c : Atomic.cost) ~instances =
  if is_async then
    ctx.counters.Counters.async_copies <-
      ctx.counters.Counters.async_copies + instances;
  if is_tc then
    ctx.counters.Counters.tensor_core_flops <-
      ctx.counters.Counters.tensor_core_flops + (c.Atomic.flops * instances)
  else
    ctx.counters.Counters.flops <-
      ctx.counters.Counters.flops + (c.Atomic.flops * instances);
  ctx.counters.Counters.instructions <-
    ctx.counters.Counters.instructions
    + (c.Atomic.instructions * instances)
    - instances;
  Counters.add_instr_n ctx.counters name instances;
  match ctx.prof with
  | Some p ->
    Profiler.on_cost p ~instr:name ~tc:is_tc ~flops:c.Atomic.flops
      ~instructions:c.Atomic.instructions ~instances
  | None -> ()

let account_instr_cost ctx (instr : Atomic.instr) (s : Spec.t) ~instances =
  let name = instr.Atomic.name in
  account_cost ctx ~name
    ~is_tc:(Lower.Pipeline.starts_with "mma" name)
    ~is_async:(Lower.Pipeline.starts_with "cp.async" name)
    (instr.Atomic.cost s) ~instances

(* Execute a per-thread atomic spec for all active threads, warp by warp, so
   that address batches model warp-synchronous coalescing. *)
let exec_per_thread ctx (instr : Atomic.instr) (s : Spec.t) env active =
  let warps = warps_of active in
  let dur = max 1 (instr.Atomic.cost s).Atomic.instructions in
  List.iter
    (fun (w, tids) ->
      (* Address accounting happens before data movement so that loads
         observe pre-instruction state (irrelevant for addresses). *)
      List.iter (record_view_batch ctx env tids ~store:false) s.Spec.ins;
      List.iter (record_view_batch ctx env tids ~store:true) s.Spec.outs;
      List.iter
        (fun tid ->
          Semantics.exec ?trace:(sem_trace ctx) ~block:ctx.block ctx.mem ~instr
            ~spec:s ~env ~members:[| tid |])
        tids;
      Option.iter
        (fun p ->
          Profiler.exec_event p ~block:ctx.block ~warp:w
            ~lanes:(List.length tids) ~dur)
        ctx.prof)
    warps;
  account_instr_cost ctx instr s ~instances:(List.length active)

(* ldmatrix address traffic: each lane supplies one 16-byte address covering
   a stored row (a logical column for the .trans variants); matrices are
   consumed in phases of eight lanes. *)
let record_ldmatrix_symbolic ctx ~trans x (s : Spec.t) env members =
  match s.Spec.ins with
  | [ src ] ->
    let outer_dims =
      if Ts.depth src > 1 then
        List.map
          (fun m -> E.to_int_exn (Shape.Int_tuple.size m))
          (Shape.Int_tuple.modes (L.dims src.Ts.layout))
      else []
    in
    let row_addr j r =
      let tile =
        if outer_dims = [] then src
        else Ts.select_ints src (Lower.Pipeline.tile_coords outer_dims j)
      in
      let row =
        if trans then Ts.select_ints tile [ 0; r ]
        else Ts.select_ints tile [ r; 0 ]
      in
      let offs = Memory.offsets ctx.mem ~env:(with_tid env members.(0)) row in
      offs.(0) * Dt.size_bytes (Ts.dtype src)
    in
    let addrs = addr_scratch 8 in
    for j = 0 to x - 1 do
      for r = 0 to 7 do
        addrs.(r) <- row_addr j r
      done;
      Counters.record_shared_batch ctx.counters ~store:false ~bytes:16 addrs
        ~len:8;
      Counters.record_requests ctx.counters ~global:false ~elems:1 ~width:1
        ~bytes:0;
      Option.iter
        (fun p ->
          Profiler.on_shared_batch p ~block:ctx.block ~store:false ~bytes:16
            ~warp:(members.(0) / 32) addrs ~len:8)
        ctx.prof
    done
  | _ -> ()

let exec_collective ctx (instr : Atomic.instr) (s : Spec.t) env active =
  (* Group the active threads into instances of the collective. *)
  let seen = Hashtbl.create 8 in
  let active_set = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace active_set t ()) active;
  let groups = ref [] in
  List.iter
    (fun tid ->
      let members =
        Tt.member_ids ~env:(with_tid env tid) s.Spec.threads
      in
      let key = Array.to_list members in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        if not (Array.for_all (Hashtbl.mem active_set) members) then
          error "collective %s executed with divergent threads"
            instr.Atomic.name;
        groups := members :: !groups
      end)
    active;
  let groups = List.rev !groups in
  let dur = max 1 (instr.Atomic.cost s).Atomic.instructions in
  List.iter
    (fun members ->
      (match Atomic.parse_ldmatrix instr.Atomic.name with
      | Some (x, trans) -> record_ldmatrix_symbolic ctx ~trans x s env members
      | None -> ());
      Semantics.exec ?trace:(sem_trace ctx) ~block:ctx.block ctx.mem ~instr
        ~spec:s ~env ~members;
      Option.iter
        (fun p ->
          Profiler.exec_event p ~block:ctx.block ~warp:(members.(0) / 32)
            ~lanes:(Array.length members) ~dur)
        ctx.prof)
    groups;
  account_instr_cost ctx instr s ~instances:(List.length groups)

let rec exec_stmt ctx env active stmt =
  match stmt with
  | Spec.Comment _ | Spec.Alloc _ -> ()
  | Spec.Sync ->
    (* A barrier under divergent control flow deadlocks real hardware. *)
    if List.length active <> ctx.cta_size then
      error "__syncthreads() inside divergent control flow (%d of %d threads)"
        (List.length active) ctx.cta_size;
    Option.iter (fun p -> Profiler.on_barrier p ~block:ctx.block) ctx.prof
  | Spec.Commit_group -> exec_commit_group ctx
  | Spec.Wait_group n -> exec_wait_group ctx n
  | Spec.For { var; lo; hi; step; body; _ } ->
    if
      Lower.Pipeline.(mentions_tid lo || mentions_tid hi || mentions_tid step)
    then
      error "loop %s has thread-dependent bounds" var;
    let lo = E.eval ~env lo and hi = E.eval ~env hi and step = E.eval ~env step in
    if step <= 0 then error "loop %s has non-positive step" var;
    Option.iter (fun p -> Profiler.enter_frame p var) ctx.prof;
    let v = ref lo in
    while !v < hi do
      let env' x = if String.equal x var then !v else env x in
      List.iter (exec_stmt ctx env' active) body;
      v := !v + step
    done;
    Option.iter Profiler.exit_frame ctx.prof
  | Spec.If { cond; then_; else_ } ->
    if Lower.Pipeline.pred_mentions_tid cond then begin
      let taken, not_taken =
        List.partition (fun tid -> eval_pred (with_tid env tid) cond) active
      in
      if taken <> [] then List.iter (exec_stmt ctx env taken) then_;
      if not_taken <> [] && else_ <> [] then
        List.iter (exec_stmt ctx env not_taken) else_
    end
    else if eval_pred env cond then List.iter (exec_stmt ctx env active) then_
    else List.iter (exec_stmt ctx env active) else_
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body ->
      let framed = String.length s.Spec.label > 0 in
      if framed then
        Option.iter (fun p -> Profiler.enter_frame p s.Spec.label) ctx.prof;
      List.iter (exec_stmt ctx env active) body;
      if framed then Option.iter Profiler.exit_frame ctx.prof
    | None -> (
      match Atomic.find ctx.arch s with
      | None ->
        error "no atomic spec matches %s"
          (Format.asprintf "%a" Spec.pp { s with Spec.decomp = None })
      | Some instr ->
        Option.iter
          (fun p ->
            Profiler.begin_atomic p ~label:s.Spec.label
              ~kind:(Spec.kind_name s.Spec.kind) ~instr:instr.Atomic.name)
          ctx.prof;
        if instr.Atomic.threads = 1 then exec_per_thread ctx instr s env active
        else exec_collective ctx instr s env active))

(* ===== parallel grid execution =====

   Thread blocks are independent: each owns its shared memory, register
   files and barrier scope, and distinct blocks write disjoint global
   cells (the same contract real hardware gives a kernel). So the grid
   splits into contiguous ascending block *chunks*, sized from the
   measured per-block cost (Domain_pool.cost_chunk_size); domains claim
   chunks ascending off a shared atomic (chunk-granularity stealing with
   ascending affinity), each executing against the shared global arena
   with private block-local memory, a fresh per-chunk counter set and a
   forked profiler. Finished chunks merge into the main sinks *eagerly*,
   in ascending chunk order, while later chunks are still executing —
   merge order is deterministic, so every observable — counters, profiler
   reports, Chrome traces, output buffers — stays bit-identical to the
   1-domain run regardless of which domain ran which chunk or when.
   See docs/PARALLELISM.md for the full argument. *)

(* [auto] distinguishes defaulted parallelism (neither [?domains] nor
   GRAPHENE_SIM_DOMAINS given) from requested parallelism: only a
   defaulted run may fall back to sequential execution when the probe
   says the grid is too cheap to parallelize. An explicit domain count
   always takes the parallel path — the bit-identity suites rely on
   actually exercising it. *)
let resolve_domains ?domains ~grid_size () =
  let auto = domains = None && Sys.getenv_opt "GRAPHENE_SIM_DOMAINS" = None in
  let d =
    match domains with Some d -> d | None -> Domain_pool.default_domains ()
  in
  (max 1 (min d grid_size), auto)

(* Below this estimated remaining-work wall time, a defaulted run
   finishes sequentially: pool dispatch, per-domain executor state and
   chunk bookkeeping would cost more than they save. *)
let sequential_cutoff_ns = 400_000

let merge_chunk ~counters ~profiler (c, p) =
  Counters.merge counters c;
  match (profiler, p) with
  | Some dst, Some src -> Profiler.merge_into dst src
  | _ -> ()

(* The engine-agnostic parallel driver. ['st] is one domain's executor
   state (memory + contexts), built once per domain by [make_state] and
   re-targeted at per-chunk sinks by [set_sinks]; [exec_block st bid]
   executes one thread block into the state's current sinks, touching no
   other shared state. Block 0 runs first on the submitting domain,
   timed, to learn the per-block cost that sizes the chunks. *)
let run_grid (type st) ~domains ~auto ~grid_size ~counters ~profiler
    ~(make_state : unit -> st) ~(set_sinks : st -> Counters.t -> Profiler.t option -> unit)
    ~(exec_block : st -> int -> unit) () =
  if domains <= 1 || grid_size <= 1 then begin
    let st = make_state () in
    set_sinks st counters profiler;
    for bid = 0 to grid_size - 1 do
      exec_block st bid
    done
  end
  else begin
    (* Probe block 0 into a fork merged immediately, so the observable
       stream stays ascending whatever happens next. *)
    let st0 = make_state () in
    let c0 = Counters.create () in
    let p0 = Option.map Profiler.fork profiler in
    set_sinks st0 c0 p0;
    let t0 = Unix.gettimeofday () in
    exec_block st0 0;
    let block_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    merge_chunk ~counters ~profiler (c0, p0);
    let rest = grid_size - 1 in
    if auto && rest * block_ns < sequential_cutoff_ns then begin
      (* Too cheap to parallelize: finish on the probe's state, recording
         straight into the main sinks (equivalent to merging per-block
         forks, by the merge contract — just without the forks). *)
      set_sinks st0 counters profiler;
      for bid = 1 to grid_size - 1 do
        exec_block st0 bid
      done
    end
    else begin
      let chunk = Domain_pool.cost_chunk_size ~total:rest ~domains ~block_ns in
      let nchunks = (rest + chunk - 1) / chunk in
      let next = Stdlib.Atomic.make 0 in
      let abort = Stdlib.Atomic.make false in
      let results :
          ( (Counters.t * Profiler.t option, exn * Printexc.raw_backtrace)
            Stdlib.result
            option
          )
            array =
        Array.make nchunks None
      in
      (* Merge frontier: chunks [0, !merged) have been folded into the
         main sinks. Advancing stops at a failed chunk — nothing at or
         past the lowest failure is ever merged, exactly like a
         sequential run that raised there. *)
      let merged = ref 0 in
      let merge_mutex = Mutex.create () in
      let publish i r =
        Mutex.lock merge_mutex;
        results.(i) <- Some r;
        let continue = ref true in
        while !continue && !merged < nchunks do
          match results.(!merged) with
          | Some (Ok cp) ->
            merge_chunk ~counters ~profiler cp;
            incr merged
          | Some (Error _) | None -> continue := false
        done;
        Mutex.unlock merge_mutex
      in
      (* Each pool task is one domain's claim loop; executor state is
         built lazily on first claim (the submitting domain reuses the
         probe's). Claims are ascending, so every chunk below the lowest
         failing one is claimed before it and runs to completion. *)
      let worker st_init () =
        let st = ref st_init in
        let continue = ref true in
        while !continue do
          if Stdlib.Atomic.get abort then continue := false
          else begin
            let i = Stdlib.Atomic.fetch_and_add next 1 in
            if i >= nchunks then continue := false
            else begin
              let st =
                match !st with
                | Some s -> s
                | None ->
                  let s = make_state () in
                  st := Some s;
                  s
              in
              let c = Counters.create () in
              let p = Option.map Profiler.fork profiler in
              set_sinks st c p;
              let lo = 1 + (i * chunk) in
              let hi = min grid_size (lo + chunk) in
              let r =
                match
                  for bid = lo to hi - 1 do
                    exec_block st bid
                  done
                with
                | () -> Ok (c, p)
                | exception e ->
                  Stdlib.Atomic.set abort true;
                  Error (e, Printexc.get_raw_backtrace ())
              in
              publish i r
            end
          end
        done
      in
      let ndom = min domains nchunks in
      (* Task 0 runs on the submitting domain (Domain_pool.run_list),
         which built st0 — so the probe's state is reused there. *)
      ignore
        (Domain_pool.run_list (Domain_pool.global ())
           (List.init ndom (fun i -> worker (if i = 0 then Some st0 else None))));
      if !merged < nchunks then begin
        match results.(!merged) with
        | Some (Error (e, bt)) ->
          (* The lowest failing chunk — the failure a sequential run
             would hit first. Re-raised as itself so callers see
             Exec_error / Fault exactly as in a 1-domain run. *)
          Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> assert false
      end
    end
  end

let run_tree ~arch ?profiler ?domains (k : Spec.kernel) ~args ?(scalars = []) ()
    =
  let arena = Memory.create_global () in
  List.iter (fun (name, data) -> Memory.bind_arena arena name data) args;
  let allocs = Spec.allocs k.Spec.body in
  let declare mem =
    List.iter
      (fun (t : Ts.t) ->
        match t.Ts.mem with
        | Ms.Shared ->
          Memory.declare_shared mem t.Ts.buffer
            (Lower.Pipeline.shared_alloc_size t)
        | Ms.Register ->
          Memory.declare_regs mem t.Ts.buffer (L.cosize t.Ts.layout)
        | Ms.Global -> error "Alloc of a global tensor %s" t.Ts.buffer)
      allocs
  in
  let cta_size = Tt.size k.Spec.cta in
  let grid_size = Tt.size k.Spec.grid in
  let base_env v =
    match List.assoc_opt v scalars with
    | Some n -> n
    | None -> error "unbound variable %s (missing scalar argument?)" v
  in
  let all_threads = List.init cta_size Fun.id in
  let counters = Counters.create () in
  let domains, auto = resolve_domains ?domains ~grid_size () in
  run_grid ~domains ~auto ~grid_size ~counters ~profiler
    ~make_state:(fun () ->
      let mem = Memory.of_global arena in
      declare mem;
      { arch; mem; counters; cta_size; prof = None; block = 0 })
    ~set_sinks:(fun ctx c p ->
      ctx.counters <- c;
      ctx.prof <- p)
    ~exec_block:(fun ctx bid ->
      Memory.new_block ctx.mem;
      ctx.block <- bid;
      Option.iter Profiler.begin_block ctx.prof;
      let env v = if String.equal v "blockIdx.x" then bid else base_env v in
      List.iter (exec_stmt ctx env all_threads) k.Spec.body)
    ();
  counters

(* ===== the plan executor =====

   Runs a [Lower.Plan.t]'s bytecode body (Lower.Bytecode): atomic
   resolution already happened (once, at lowering), loop bounds /
   predicates / view offsets are closures over one dense slot array, all
   profiler attribution strings and costs are precomputed, and control
   flow is a dense int-tagged instruction array driven by a tight
   tail-recursive match over the opcode word. Observable behavior —
   counters, profiler events and their order, traces, error messages,
   memory effects — is bit-identical to [run_tree]; test/test_lower.ml
   and test/test_bytecode.ml pin that down per kernel.

   Active sets are per-warp 32-bit masks ([Warp_mask]) instead of thread
   id lists, and the plan's depcheck annotations drive hoisting: a view
   enumeration or collective member grouping whose dependence tier is
   below [Thread] is computed once and reused while the slots it reads
   ([v_dep_slots] / [a_members_slots]) hold the values they held when it
   was cached — equal inputs give equal results, so stale-but-equal reuse
   is sound. Address batches read only the first scalar offset, via the
   allocation-free [v_addr0] closure.

   The steady state allocates nothing: profiler hooks are direct matches
   on [ctx.prof], loop and branch bodies are [pc] ranges, divergent
   branches reuse a preallocated per-depth mask arena ([bc_taken] /
   [bc_not_taken]) and [Semantics] dispatch tags are resolved once with
   [Semantics.classify]. Allocation-freedom is what makes multi-domain
   execution profitable: OCaml 5 minor collections stop every domain. *)

module WM = Warp_mask
module Depcheck = Lower.Depcheck

let no_addr = Lower.Expr_comp.no_addr

(* Name lookup for the residual symbolic paths (a shfl.idx source-lane
   expression, a derived ldmatrix row view). *)
let plan_env_fun (a : P.atomic) (env : int array) name =
  match a.P.a_lookup name with
  | Some slot ->
    let x = env.(slot) in
    if x = Slots.unbound then
      error "unbound variable %s (missing scalar argument?)" name
    else x
  | None -> error "unbound variable %s (missing scalar argument?)" name

let find_pview (a : P.atomic) (v : Ts.t) =
  let rec go = function
    | [] -> None
    | (pv : P.view) :: tl -> if pv.P.v_ts == v then Some pv else go tl
  in
  match go a.P.a_ins with Some pv -> Some pv | None -> go a.P.a_outs

(* Cached value of one view's offset enumeration, reusable while the
   slots in [v_dep_slots] hold the snapshot values. Thread-tier views
   never land here. *)
type vcache =
  { mutable vc_valid : bool
  ; vc_snap : int array
  ; mutable vc_offs : int array
  }

(* Per-tid cache for Thread-tier views: one enumeration per thread,
   valid while the non-thread dependence slots ([v_dep_slots], which
   never include threadIdx.x) hold the snapshot values. A loop-invariant
   register fragment view — the common operand shape of mma/ldmatrix
   collectives — is then enumerated once per thread per launch instead
   of once per member per group per iteration. The empty array is the
   "not yet computed" sentinel: OCaml's zero-length arrays all share one
   atom, so a legitimately empty enumeration just recomputes (cheap and
   rare) rather than aliasing the sentinel incorrectly. *)
type tcache =
  { mutable tc_valid : bool
  ; tc_snap : int array
  ; tc_offs : int array array  (* by tid; [||] = not computed *)
  }

(* Cached collective grouping: valid for the same dependence-slot
   snapshot AND the same activity mask (the groups are a function of
   both). *)
type gcache =
  { mutable gc_valid : bool
  ; gc_snap : int array
  ; gc_mask : int array
  ; mutable gc_groups : int array array
  }

(* Per-domain executor state: one slot env, one full-CTA mask, reusable
   scratch buffers, the hoisting caches (indexed by the plan's dense
   view/atomic ids), the per-atomic closures ([plan_env_fun] and the
   offsets oracle) and the flattened program with its pre-resolved
   dispatch tags, allocated once instead of once per atomic exec. *)
type pctx =
  { c : ctx
  ; env : int array
  ; full : WM.t
  ; addrs : int array  (* address batch scratch: one slot per warp lane *)
  ; ld8 : int array  (* ldmatrix row-address scratch *)
  ; members1 : int array  (* reused singleton members for per-thread exec *)
  ; fc_tids : int array  (* fastcopy scratch: active lane tids ... *)
  ; fc_src : int array  (* ... their source base element offsets ... *)
  ; fc_dst : int array  (* ... and destination bases, per warp *)
  ; vcaches : vcache array  (* by v_id *)
  ; tcaches : tcache array  (* by v_id; seated for Thread-tier views *)
  ; gcaches : gcache array  (* by a_id *)
  ; seen : (int array, unit) Hashtbl.t  (* group-dedup scratch *)
  ; mutable a_envf : (string -> int) array  (* by a_id *)
  ; mutable a_offs : (Ts.t -> int -> int array) array  (* by a_id *)
  ; bc_code : int array
  ; bc_atomics : P.atomic array
  ; bc_exprs : (int array -> int) array
  ; bc_conds : (int array -> bool) array
  ; bc_labels : string array
  ; bc_fails : string array
  ; bc_sem : Semantics.code array  (* by a_id: pre-resolved dispatch *)
  ; bc_taken : WM.t array  (* divergence mask arena, by branch depth *)
  ; bc_not_taken : WM.t array
  ; bc_lanes : int array array
        (* by v_id: the current warp batch's first offset per lane, kept
           by [record_batch] for Thread-tier global/shared views *)
  ; bc_scalar_fma : bool array  (* by a_id: runs [exec_scalar_fma] *)
  }

let snap_matches snap slots (env : int array) =
  let n = Array.length slots in
  let rec go i =
    i >= n
    || Array.unsafe_get snap i
       = Array.unsafe_get env (Array.unsafe_get slots i)
       && go (i + 1)
  in
  go 0

let snap_update snap slots (env : int array) =
  for i = 0 to Array.length slots - 1 do
    Array.unsafe_set snap i (Array.unsafe_get env (Array.unsafe_get slots i))
  done

let cached_offsets px (pv : P.view) =
  let vc = px.vcaches.(pv.P.v_id) in
  if vc.vc_valid && snap_matches vc.vc_snap pv.P.v_dep_slots px.env then
    vc.vc_offs
  else begin
    let offs = pv.P.v_offsets px.env in
    vc.vc_offs <- offs;
    snap_update vc.vc_snap pv.P.v_dep_slots px.env;
    vc.vc_valid <- true;
    offs
  end

let thread_cached_offsets px (pv : P.view) tid =
  let tc = px.tcaches.(pv.P.v_id) in
  if not (tc.tc_valid && snap_matches tc.tc_snap pv.P.v_dep_slots px.env)
  then begin
    Array.fill tc.tc_offs 0 (Array.length tc.tc_offs) [||];
    snap_update tc.tc_snap pv.P.v_dep_slots px.env;
    tc.tc_valid <- true
  end;
  let cached = tc.tc_offs.(tid) in
  if Array.length cached > 0 then cached
  else begin
    let offs = pv.P.v_offsets px.env in
    tc.tc_offs.(tid) <- offs;
    offs
  end

(* The offsets oracle handed to [Semantics.exec_coded]: compiled closure
   for the atomic's own views (cached per the depcheck tier), symbolic
   fallback for any derived view. *)
let plan_offsets_px px (a : P.atomic) v tid =
  px.env.(Slots.tid_slot) <- tid;
  match find_pview a v with
  | Some pv ->
    if pv.P.v_dep.Depcheck.d_tier = Depcheck.Thread then
      thread_cached_offsets px pv tid
    else cached_offsets px pv
  | None -> Ts.scalar_offsets ~env:(with_tid (px.a_envf.(a.P.a_id)) tid) v

(* A view the lane-address pass covers: [record_batch] evaluates its
   first offset for every active lane, so execution can reuse it. *)
let lane_recorded (pv : P.view) =
  pv.P.v_dep.Depcheck.d_tier = Depcheck.Thread
  && not (Ms.equal pv.P.v_mem Ms.Register)

(* The scalar FMA path applies to a per-thread [C_fma] whose three views
   each hold exactly one element per thread — the naive GEMM's
   [c += a * b]. Decided from the plan alone. *)
let is_scalar_fma (a : P.atomic) sem =
  let one (pv : P.view) =
    match Ts.num_scalars_int pv.P.v_ts with
    | n -> n = 1
    | exception _ -> false
  in
  a.P.a_per_thread
  && (match sem with Semantics.C_fma -> true | _ -> false)
  &&
  match (a.P.a_ins, a.P.a_outs) with
  | [ x; y ], [ z ] -> one x && one y && one z
  | _ -> false

(* Build the per-domain executor state: seat the caches from the plan's
   atomics, then the per-atomic closures (they capture the state record
   itself, hence the two-phase construction). *)
let make_pctx ctx (plan : P.t) (env : int array) =
  let bc = plan.P.body in
  let vcaches =
    Array.make plan.P.n_views { vc_valid = false; vc_snap = [||]; vc_offs = [||] }
  in
  let tcaches =
    Array.make plan.P.n_views { tc_valid = false; tc_snap = [||]; tc_offs = [||] }
  in
  let nwords = WM.nwords ~cta_size:plan.P.cta_size in
  let seat (pv : P.view) =
    if pv.P.v_dep.Depcheck.d_tier = Depcheck.Thread then
      tcaches.(pv.P.v_id) <-
        { tc_valid = false
        ; tc_snap = Array.make (Array.length pv.P.v_dep_slots) Slots.unbound
        ; tc_offs = Array.make plan.P.cta_size [||]
        }
    else
      vcaches.(pv.P.v_id) <-
        { vc_valid = false
        ; vc_snap = Array.make (Array.length pv.P.v_dep_slots) Slots.unbound
        ; vc_offs = [||]
        }
  in
  let gcaches =
    Array.map
      (fun (a : P.atomic) ->
        List.iter seat a.P.a_ins;
        List.iter seat a.P.a_outs;
        { gc_valid = false
        ; gc_snap = Array.make (Array.length a.P.a_members_slots) Slots.unbound
        ; gc_mask = Array.make nwords 0
        ; gc_groups = [||]
        })
      bc.P.bc_atomics
  in
  let sem =
    Array.map
      (fun (a : P.atomic) ->
        Semantics.classify ~instr:a.P.a_instr ~spec:a.P.a_spec)
      bc.P.bc_atomics
  in
  let px =
    { c = ctx
    ; env
    ; full = WM.full ~cta_size:plan.P.cta_size
    ; addrs = Array.make 32 0
    ; ld8 = Array.make 8 0
    ; members1 = [| 0 |]
    ; fc_tids = Array.make 32 0
    ; fc_src = Array.make 32 0
    ; fc_dst = Array.make 32 0
    ; vcaches
    ; tcaches
    ; gcaches
    ; seen = Hashtbl.create 32
    ; a_envf = [||]
    ; a_offs = [||]
    ; bc_code = bc.P.bc_code
    ; bc_atomics = bc.P.bc_atomics
    ; bc_exprs = bc.P.bc_exprs
    ; bc_conds = bc.P.bc_conds
    ; bc_labels = bc.P.bc_labels
    ; bc_fails = bc.P.bc_fails
    ; bc_sem = sem
    ; bc_taken = Array.init bc.P.bc_max_depth (fun _ -> Array.make nwords 0)
    ; bc_not_taken = Array.init bc.P.bc_max_depth (fun _ -> Array.make nwords 0)
    ; bc_lanes = Array.init plan.P.n_views (fun _ -> Array.make 32 no_addr)
    ; bc_scalar_fma = Array.map2 is_scalar_fma bc.P.bc_atomics sem
    }
  in
  px.a_envf <- Array.map (fun a -> plan_env_fun a env) bc.P.bc_atomics;
  px.a_offs <- Array.map (plan_offsets_px px) bc.P.bc_atomics;
  px

(* One warp's address batch for one view: first scalar byte address per
   active lane, ascending. A thread-independent view yields one address
   computed once and duplicated per lane — the byte totals and the
   conflict phase structure depend on the lane count, so the duplicates
   are semantically load-bearing, not waste.

   This is also the lane-address pass: a Thread-tier view's first offset
   is evaluated once per active lane and kept in the view's lane array
   ([bc_lanes]), so the scalar FMA path reads it back instead of
   evaluating the address closure (or the offsets oracle) again. *)
let record_batch px w wmask ~store (pv : P.view) =
  match pv.P.v_mem with
  | Ms.Register -> ()
  | Ms.Global | Ms.Shared ->
    let env = px.env and addrs = px.addrs in
    let n = ref 0 in
    if pv.P.v_dep.Depcheck.d_tier = Depcheck.Thread then begin
      let base = w * 32 in
      let lanes = Array.unsafe_get px.bc_lanes pv.P.v_id in
      for l = 0 to 31 do
        if wmask land (1 lsl l) <> 0 then begin
          env.(Slots.tid_slot) <- base + l;
          let a = pv.P.v_addr0 env in
          Array.unsafe_set lanes l a;
          if a <> no_addr then begin
            Array.unsafe_set addrs !n (a * pv.P.v_elt_bytes);
            incr n
          end
        end
      done
    end
    else begin
      let a = pv.P.v_addr0 env in
      if a <> no_addr then begin
        let count = WM.popcount32 wmask in
        let byte = a * pv.P.v_elt_bytes in
        for i = 0 to count - 1 do
          Array.unsafe_set addrs i byte
        done;
        n := count
      end
    end;
    if !n > 0 then begin
      let ctx = px.c in
      let bytes = pv.P.v_batch_bytes in
      (* Request accounting at the view's executed vector width. Only the
         request/vectorized counters see the widening; the byte and
         sector accounting below is untouched, so a widened plan differs
         from its scalar twin in requests alone. *)
      Counters.record_requests ctx.counters
        ~global:(Ms.equal pv.P.v_mem Ms.Global)
        ~elems:(bytes / pv.P.v_elt_bytes)
        ~width:pv.P.v_vec_width ~bytes:(bytes * !n);
      if Ms.equal pv.P.v_mem Ms.Global then begin
        Counters.record_global_batch ctx.counters ~store ~bytes addrs ~len:!n;
        match ctx.prof with
        | Some p ->
          Profiler.on_global_batch p ~block:ctx.block ~store ~bytes ~warp:w
            addrs ~len:!n
        | None -> ()
      end
      else begin
        Counters.record_shared_batch ctx.counters ~store ~bytes addrs ~len:!n;
        match ctx.prof with
        | Some p ->
          Profiler.on_shared_batch p ~block:ctx.block ~store ~bytes ~warp:w
            addrs ~len:!n
        | None -> ()
      end
    end

let rec record_batches px w wmask ~store = function
  | [] -> ()
  | pv :: tl ->
    record_batch px w wmask ~store pv;
    record_batches px w wmask ~store tl

let account_plan_cost ctx (a : P.atomic) ~instances =
  account_cost ctx ~name:a.P.a_instr.Atomic.name ~is_tc:a.P.a_is_tc
    ~is_async:a.P.a_is_async a.P.a_cost ~instances

(* The wide-transaction fast path: a vector-widened, full-span contiguous
   move skips the per-lane [Semantics.exec_coded] dispatch (and its
   offset enumeration) — every active lane's enumeration is exactly
   [addr0, addr0 + n) on both sides, so one [exec_warp_move_contig] call
   per warp moves the whole batch. Skipped when instruction-level tracing
   is on: the detail trace wants one event per lane from the generic
   path. Counter accounting ([record_batches], [account_plan_cost]) is
   shared with the generic path, so only the data-movement engine
   changes. *)
let exec_plan_fastcopy px (a : P.atomic) w m =
  let env = px.env in
  let src = List.hd a.P.a_ins and dst = List.hd a.P.a_outs in
  let n = src.P.v_batch_bytes / src.P.v_elt_bytes in
  let base = w * 32 in
  let lanes = ref 0 in
  for l = 0 to 31 do
    if m land (1 lsl l) <> 0 then begin
      let tid = base + l in
      env.(Slots.tid_slot) <- tid;
      let i = !lanes in
      px.fc_tids.(i) <- tid;
      px.fc_src.(i) <- src.P.v_addr0 env;
      px.fc_dst.(i) <- dst.P.v_addr0 env;
      incr lanes
    end
  done;
  if a.P.a_is_async then
    Semantics.exec_warp_cp_async_contig px.c.mem a.P.a_spec ~tids:px.fc_tids
      ~src_bases:px.fc_src ~dst_bases:px.fc_dst ~lanes:!lanes ~n
  else
    Semantics.exec_warp_move_contig px.c.mem a.P.a_spec ~tids:px.fc_tids
      ~src_bases:px.fc_src ~dst_bases:px.fc_dst ~lanes:!lanes ~n

(* One lane's first offset of [pv]: from the lane-address pass when it
   covers the view, else evaluated for this lane (the tid slot is set). *)
let lane_addr0 px (pv : P.view) l =
  if lane_recorded pv then
    Array.unsafe_get (Array.unsafe_get px.bc_lanes pv.P.v_id) l
  else pv.P.v_addr0 px.env

(* One lane through the generic semantics (tracing off). *)
let exec_lane px (a : P.atomic) sem tid =
  let ctx = px.c in
  px.members1.(0) <- tid;
  Semantics.exec_coded ~block:ctx.block ~offs:px.a_offs.(a.P.a_id) ctx.mem sem
    ~instr:a.P.a_instr ~spec:a.P.a_spec ~env:px.a_envf.(a.P.a_id)
    ~members:px.members1

(* The scalar FMA path: [c <- round (a * b + c)] per active lane, on
   unboxed floats read straight from the buffers. Global and shared
   buffers are resolved once per warp batch (on the first lane, at the
   point the generic path first resolves them), register files per
   lane. Per lane the order of offset evaluation, resolution, bounds
   checks and the store is exactly [Semantics.exec_thread_fma]'s, so
   faults and their messages match; a lane with an empty enumeration
   (no first offset) runs the generic semantics instead. *)
let exec_scalar_fma px (a : P.atomic) sem w m =
  let ctx = px.c in
  let mem = ctx.mem and env = px.env in
  match (a.P.a_ins, a.P.a_outs) with
  | [ va; vb ], [ vc ] ->
    let ta = va.P.v_ts and tb = vb.P.v_ts and tc = vc.P.v_ts in
    let reg_a = Ms.equal va.P.v_mem Ms.Register
    and reg_b = Ms.equal vb.P.v_mem Ms.Register
    and reg_c = Ms.equal vc.P.v_mem Ms.Register in
    let dt = Ts.dtype tc in
    let ba = ref [||] and bb = ref [||] and bc = ref [||] in
    let ra = ref false and rb = ref false and rc = ref false in
    let base = w * 32 in
    for l = 0 to 31 do
      if m land (1 lsl l) <> 0 then begin
        let tid = base + l in
        env.(Slots.tid_slot) <- tid;
        let oa = lane_addr0 px va l in
        if oa = no_addr then exec_lane px a sem tid
        else begin
          if reg_a || not !ra then begin
            ba := Memory.buffer mem ~tid ta;
            ra := true
          end;
          Memory.checked !ba ta oa;
          let ob = lane_addr0 px vb l in
          if ob = no_addr then exec_lane px a sem tid
          else begin
            if reg_b || not !rb then begin
              bb := Memory.buffer mem ~tid tb;
              rb := true
            end;
            Memory.checked !bb tb ob;
            let oc = lane_addr0 px vc l in
            if oc = no_addr then exec_lane px a sem tid
            else begin
              if reg_c || not !rc then begin
                bc := Memory.buffer mem ~tid tc;
                rc := true
              end;
              let cbuf = !bc in
              Memory.checked cbuf tc oc;
              let x =
                (Array.unsafe_get !ba oa *. Array.unsafe_get !bb ob)
                +. Array.unsafe_get cbuf oc
              in
              Array.unsafe_set cbuf oc (Dt.round dt x)
            end
          end
        end
      end
    done
  | _ -> invalid_arg "fma arity"

let exec_plan_per_thread px (a : P.atomic) sem (mask : WM.t) =
  let ctx = px.c in
  let env = px.env in
  let envf = px.a_envf.(a.P.a_id) in
  let offs = px.a_offs.(a.P.a_id) in
  let trace = sem_trace ctx in
  let fastcopy = a.P.a_fastcopy && trace = None in
  let scalar_fma = Array.unsafe_get px.bc_scalar_fma a.P.a_id && trace = None in
  let total = ref 0 in
  for w = 0 to Array.length mask - 1 do
    let m = Array.unsafe_get mask w in
    if m <> 0 then begin
      record_batches px w m ~store:false a.P.a_ins;
      record_batches px w m ~store:true a.P.a_outs;
      if fastcopy then exec_plan_fastcopy px a w m
      else if scalar_fma then exec_scalar_fma px a sem w m
      else begin
        let base = w * 32 in
        for l = 0 to 31 do
          if m land (1 lsl l) <> 0 then begin
            let tid = base + l in
            env.(Slots.tid_slot) <- tid;
            px.members1.(0) <- tid;
            Semantics.exec_coded ?trace ~block:ctx.block ~offs ctx.mem sem
              ~instr:a.P.a_instr ~spec:a.P.a_spec ~env:envf
              ~members:px.members1
          end
        done
      end;
      let lanes = WM.popcount32 m in
      total := !total + lanes;
      match ctx.prof with
      | Some p ->
        Profiler.exec_event p ~block:ctx.block ~warp:w ~lanes ~dur:a.P.a_dur
      | None -> ()
    end
  done;
  account_plan_cost ctx a ~instances:!total

let record_ldmatrix px (a : P.atomic) ~trans x members =
  let ctx = px.c in
  match a.P.a_ld_rows with
  | Some (rows, elt_bytes) ->
    px.env.(Slots.tid_slot) <- members.(0);
    for j = 0 to x - 1 do
      let rj = rows.(j) in
      for r = 0 to 7 do
        let addr = rj.(r) px.env in
        (* An empty row enumeration raises what the tree path's
           [offs.(0)] access raises. *)
        if addr = no_addr then invalid_arg "index out of bounds";
        Array.unsafe_set px.ld8 r (addr * elt_bytes)
      done;
      Counters.record_shared_batch ctx.counters ~store:false ~bytes:16 px.ld8
        ~len:8;
      Counters.record_requests ctx.counters ~global:false ~elems:1 ~width:1
        ~bytes:0;
      match ctx.prof with
      | Some p ->
        Profiler.on_shared_batch p ~block:ctx.block ~store:false ~bytes:16
          ~warp:(members.(0) / 32) px.ld8 ~len:8
      | None -> ()
    done
  | None ->
    (* Symbolic fallback (e.g. an outer extent the compiler couldn't make
       concrete) — identical traffic, derived the tree path's way. *)
    record_ldmatrix_symbolic ctx ~trans x a.P.a_spec (px.a_envf.(a.P.a_id))
      members

(* Group the active threads into collective instances: probe every active
   thread ascending, dedup on the member array, and require every member
   of a fresh group to be active — exactly the tree path's grouping, so
   overlapping or divergent member sets fail identically. *)
let compute_groups px (a : P.atomic) (mask : WM.t) =
  let members_of =
    match a.P.a_members with
    | Some f -> f
    | None ->
      (* Plan invariant: the compile pass builds a member function for
         every collective. Absence means the plan was corrupted. *)
      error "collective %s has no compiled member function (plan invariant \
             violated)"
        a.P.a_instr.Atomic.name
  in
  Hashtbl.clear px.seen;
  let groups = ref [] and n = ref 0 in
  WM.iter
    (fun tid ->
      let members = members_of px.env tid in
      if not (Hashtbl.mem px.seen members) then begin
        Hashtbl.replace px.seen members ();
        if not (Array.for_all (WM.mem mask) members) then
          error "collective %s executed with divergent threads"
            a.P.a_instr.Atomic.name;
        groups := members :: !groups;
        incr n
      end)
    mask;
  let out = Array.make !n [||] in
  let rec fill i = function
    | [] -> ()
    | g :: tl ->
      out.(i) <- g;
      fill (i - 1) tl
  in
  fill (!n - 1) !groups;
  out

let plan_groups px (a : P.atomic) (mask : WM.t) =
  let gc = px.gcaches.(a.P.a_id) in
  if
    gc.gc_valid
    && snap_matches gc.gc_snap a.P.a_members_slots px.env
    && WM.equal gc.gc_mask mask
  then gc.gc_groups
  else begin
    let groups = compute_groups px a mask in
    gc.gc_groups <- groups;
    snap_update gc.gc_snap a.P.a_members_slots px.env;
    Array.blit mask 0 gc.gc_mask 0 (Array.length mask);
    gc.gc_valid <- true;
    groups
  end

let exec_plan_collective px (a : P.atomic) sem (mask : WM.t) =
  let ctx = px.c in
  let groups = plan_groups px a mask in
  let offs = px.a_offs.(a.P.a_id) in
  let envf = px.a_envf.(a.P.a_id) in
  let trace = sem_trace ctx in
  for g = 0 to Array.length groups - 1 do
    let members = Array.unsafe_get groups g in
    (match a.P.a_ldmatrix with
    | Some (x, trans) -> record_ldmatrix px a ~trans x members
    | None -> ());
    (Semantics.exec_coded ?trace ~block:ctx.block ~offs ctx.mem sem
      ~instr:a.P.a_instr ~spec:a.P.a_spec ~env:envf ~members);
    match ctx.prof with
    | Some p ->
      Profiler.exec_event p ~block:ctx.block ~warp:(members.(0) / 32)
        ~lanes:(Array.length members) ~dur:a.P.a_dur
    | None -> ()
  done;
  account_plan_cost ctx a ~instances:(Array.length groups)

(* The dispatch loop: execute instructions in [pc, endpc) under [mask].
   The literal opcodes must match the Lower.Bytecode.op_* constants
   (test_bytecode.ml pins them); literals keep the match a direct jump.
   Structured ops recurse into their body range, then tail-continue at
   the instruction after it. *)
let rec exec_plan px (mask : WM.t) pc endpc =
  if pc < endpc then begin
    let code = px.bc_code in
    match Array.unsafe_get code pc with
    | 0 (* exec: a_id *) ->
      let a_id = Array.unsafe_get code (pc + 1) in
      let a = Array.unsafe_get px.bc_atomics a_id in
      let ctx = px.c in
      (match ctx.prof with
      | Some p ->
        Profiler.begin_atomic p ~label:a.P.a_label ~kind:a.P.a_kind
          ~instr:a.P.a_instr.Atomic.name
      | None -> ());
      let sem = Array.unsafe_get px.bc_sem a_id in
      if a.P.a_per_thread then exec_plan_per_thread px a sem mask
      else exec_plan_collective px a sem mask;
      exec_plan px mask (pc + 2) endpc
    | 1 (* loop: slot lo hi step label body_len *) ->
      let env = px.env in
      let slot = code.(pc + 1) in
      let lo = px.bc_exprs.(code.(pc + 2)) env in
      let hi = px.bc_exprs.(code.(pc + 3)) env in
      let step = px.bc_exprs.(code.(pc + 4)) env in
      let label = px.bc_labels.(code.(pc + 5)) in
      let body_len = code.(pc + 6) in
      if step <= 0 then error "loop %s has non-positive step" label;
      let ctx = px.c in
      (match ctx.prof with
      | Some p -> Profiler.enter_frame p label
      | None -> ());
      let body = pc + 7 in
      let v = ref lo in
      while !v < hi do
        env.(slot) <- !v;
        exec_plan px mask body (body + body_len);
        v := !v + step
      done;
      (match ctx.prof with Some p -> Profiler.exit_frame p | None -> ());
      exec_plan px mask (body + body_len) endpc
    | 2 (* uniform branch: cond then_len else_len *) ->
      let then_len = code.(pc + 2) and else_len = code.(pc + 3) in
      let tstart = pc + 4 in
      if px.bc_conds.(code.(pc + 1)) px.env then
        exec_plan px mask tstart (tstart + then_len)
      else exec_plan px mask (tstart + then_len) (tstart + then_len + else_len);
      exec_plan px mask (tstart + then_len + else_len) endpc
    | 3 (* divergent branch: cond depth then_len else_len *) ->
      let env = px.env in
      let cond = px.bc_conds.(code.(pc + 1)) in
      let depth = code.(pc + 2) in
      let then_len = code.(pc + 3) and else_len = code.(pc + 4) in
      (* The per-depth arena pair: safe to reuse because everything
         emitted inside this branch's bodies sits at depth+1 or deeper,
         and the words are rewritten wholesale — including zeroing
         where the incoming mask word is 0, since a previous branch at
         this depth may have left stale bits there. *)
      let taken = Array.unsafe_get px.bc_taken depth in
      let not_taken = Array.unsafe_get px.bc_not_taken depth in
      for w = 0 to Array.length mask - 1 do
        let m = Array.unsafe_get mask w in
        if m = 0 then begin
          Array.unsafe_set taken w 0;
          Array.unsafe_set not_taken w 0
        end
        else begin
          let t = ref 0 in
          let base = w * 32 in
          for l = 0 to 31 do
            if m land (1 lsl l) <> 0 then begin
              env.(Slots.tid_slot) <- base + l;
              if cond env then t := !t lor (1 lsl l)
            end
          done;
          Array.unsafe_set taken w !t;
          Array.unsafe_set not_taken w (m land lnot !t)
        end
      done;
      let tstart = pc + 5 in
      if not (WM.is_empty taken) then
        exec_plan px taken tstart (tstart + then_len);
      (* else_len = 0 iff the source If's else body was empty: skip it
         without consulting the mask, like the tree's [else_ <> []]. *)
      if else_len > 0 && not (WM.is_empty not_taken) then
        exec_plan px not_taken (tstart + then_len)
          (tstart + then_len + else_len);
      exec_plan px mask (tstart + then_len + else_len) endpc
    | 4 (* barrier *) ->
      let ctx = px.c in
      let active = WM.popcount mask in
      if active <> ctx.cta_size then
        error
          "__syncthreads() inside divergent control flow (%d of %d threads)"
          active ctx.cta_size;
      (match ctx.prof with
      | Some p -> Profiler.on_barrier p ~block:ctx.block
      | None -> ());
      exec_plan px mask (pc + 1) endpc
    | 5 (* frame: label body_len *) ->
      let label = px.bc_labels.(code.(pc + 1)) in
      let body_len = code.(pc + 2) in
      let ctx = px.c in
      (match ctx.prof with
      | Some p -> Profiler.enter_frame p label
      | None -> ());
      exec_plan px mask (pc + 3) (pc + 3 + body_len);
      (match ctx.prof with Some p -> Profiler.exit_frame p | None -> ());
      exec_plan px mask (pc + 3 + body_len) endpc
    | 6 (* fail *) -> error "%s" px.bc_fails.(code.(pc + 1))
    | 7 (* cp.async.commit_group *) ->
      exec_commit_group px.c;
      exec_plan px mask (pc + 1) endpc
    | 8 (* cp.async.wait_group: n *) ->
      exec_wait_group px.c (Array.unsafe_get code (pc + 1));
      exec_plan px mask (pc + 2) endpc
    | op -> error "corrupt bytecode: opcode %d at pc %d" op pc
  end

(* ===== engine selection ===== *)

type engine =
  | Tree
  | Bytecode

let engine_name = function
  | Tree -> "tree"
  | Bytecode -> "bytecode"

let default_plan_engine () = Bytecode

let run_plan ?profiler ?domains ?engine (plan : P.t) ~args ?(scalars = []) () =
  let engine =
    match engine with Some e -> e | None -> default_plan_engine ()
  in
  match engine with
  | Tree ->
    (* The oracle: re-interpret the plan's source kernel symbolically. *)
    run_tree ~arch:plan.P.arch ?profiler ?domains plan.P.kernel ~args ~scalars
      ()
  | Bytecode ->
    let arena = Memory.create_global () in
    List.iter (fun (name, data) -> Memory.bind_arena arena name data) args;
    let declare mem =
      List.iter
        (fun (al : P.alloc) ->
          match al.P.al_mem with
          | Ms.Shared -> Memory.declare_shared mem al.P.al_buffer al.P.al_size
          | Ms.Register -> Memory.declare_regs mem al.P.al_buffer al.P.al_size
          | Ms.Global -> error "Alloc of a global tensor %s" al.P.al_buffer)
        plan.P.allocs
    in
    let base_env = Array.make plan.P.nslots Slots.unbound in
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name plan.P.scalar_slots with
        | Some slot -> base_env.(slot) <- v
        | None -> () (* extra scalar args are ignored, as in run_tree *))
      scalars;
    let grid_size = plan.P.grid_size in
    let counters = Counters.create () in
    let domains, auto = resolve_domains ?domains ~grid_size () in
    (* Each domain state gets its own block-local memory, its own copy of
       the scalar bindings (the slot env is mutated during execution) and
       its own hoisting caches and scratch buffers, shared by nothing. *)
    run_grid ~domains ~auto ~grid_size ~counters ~profiler
      ~make_state:(fun () ->
        let mem = Memory.of_global arena in
        declare mem;
        make_pctx
          { arch = plan.P.arch
          ; mem
          ; counters
          ; cta_size = plan.P.cta_size
          ; prof = None
          ; block = 0
          }
          plan (Array.copy base_env))
      ~set_sinks:(fun px c p ->
        px.c.counters <- c;
        px.c.prof <- p)
      ~exec_block:(fun px bid ->
        let ctx = px.c in
        Memory.new_block ctx.mem;
        ctx.block <- bid;
        (match ctx.prof with
        | Some p -> Profiler.begin_block p
        | None -> ());
        px.env.(Slots.bid_slot) <- bid;
        try exec_plan px px.full 0 (Array.length px.bc_code)
        with Slots.Unbound_var v ->
          error "unbound variable %s (missing scalar argument?)" v)
      ();
    counters

(* Lower once (through the plan cache), execute. Callers running the same
   kernel repeatedly with different scalar arguments hit the cache; see
   Lower.Pipeline.lower_cached. *)
let run ~arch ?profiler ?domains ?engine (k : Spec.kernel) ~args ?scalars () =
  let plan, _cache_hit = Lower.Pipeline.lower_cached arch k in
  run_plan ?profiler ?domains ?engine plan ~args ?scalars ()
