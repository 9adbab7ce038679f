(* The lowering pipeline: Spec.kernel -> Plan.t, in seven named passes.

     validate   advisory structural diagnostics (shapes, allocations)
     flatten    decomposition tree -> flat statement list (allocs and
                comments dropped, labeled decompositions become frames,
                thread-dependent loop bounds become lazy failures)
     resolve    each leaf spec paired with its atomic instruction —
                Atomic.find runs exactly once per leaf, never at
                execution time; unmatched leaves become lazy failures
                listing near-miss candidates
     depcheck   slot-dependence footprint of every leaf quantity (view
                offsets, member functions), classified launch / block /
                loop / thread so the executor knows what to hoist
     vectorize  unit-stride contiguity / alignment proof per view:
                eligible per-thread moves widen to v2/v4 vector atomics,
                near-misses carry the refusal reason; fully-static
                shared views get the bank-conflict lint
     swpipe     software-pipeline async staging loops (rotating shared
                buffers); a rewrite re-runs flatten..vectorize
     compile    expressions, predicates, view offsets and thread
                arrangements compiled to closures over the slot array,
                carrying the depcheck tiers and vector widths as plan
                annotations, and the body emitted straight into the
                dense int-tagged instruction array the executor
                dispatches over (see Bytecode)

   Atomic matching (Validate.check_atomics) is deliberately NOT part of
   the validate pass: the resolve pass subsumes it, and running it would
   double the Atomic.find calls the pipeline promises to make only once
   per leaf. *)

module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Validate = Graphene.Validate

let mentions_tid e = List.mem "threadIdx.x" (E.free_vars e)

let rec pred_mentions_tid = function
  | Spec.Cmp (_, a, b) -> mentions_tid a || mentions_tid b
  | Spec.And (a, b) | Spec.Or (a, b) ->
    pred_mentions_tid a || pred_mentions_tid b
  | Spec.Not p -> pred_mentions_tid p

(* ----- the flattened intermediate form ----- *)

type 'leaf fstmt =
  | F_leaf of 'leaf
  | F_loop of
      { var : string; lo : E.t; hi : E.t; step : E.t; body : 'leaf fstmt list }
  | F_branch of Spec.pred * 'leaf fstmt list * 'leaf fstmt list
  | F_barrier
  | F_commit_group
  | F_wait_group of int
  | F_frame of string * 'leaf fstmt list
  | F_fail of string

let rec pp_fstmt pp_leaf fmt = function
  | F_leaf l -> pp_leaf fmt l
  | F_loop { var; lo; hi; step; body } ->
    Format.fprintf fmt "@[<v 2>for(%s = %a; %s < %a; %s += %a) {@,%a@]@,}" var
      E.pp lo var E.pp hi var E.pp step (pp_fbody pp_leaf) body
  | F_branch (p, then_, []) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" Spec.pp_pred p
      (pp_fbody pp_leaf) then_
  | F_branch (p, then_, else_) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,} else {@,%a@,}" Spec.pp_pred p
      (pp_fbody pp_leaf) then_ (pp_fbody pp_leaf) else_
  | F_barrier -> Format.fprintf fmt "__syncthreads()"
  | F_commit_group -> Format.fprintf fmt "cp.async.commit_group()"
  | F_wait_group n -> Format.fprintf fmt "cp.async.wait_group(%d)" n
  | F_frame (label, body) ->
    Format.fprintf fmt "@[<v 2>frame %S {@,%a@]@,}" label (pp_fbody pp_leaf)
      body
  | F_fail msg -> (
    match String.index_opt msg '\n' with
    | None -> Format.fprintf fmt "fail %S" msg
    | Some i -> Format.fprintf fmt "fail %S ..." (String.sub msg 0 i))

and pp_fbody pp_leaf fmt stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_fstmt pp_leaf) fmt
    stmts

let render_fstmts pp_leaf stmts =
  Format.asprintf "@[<v>%a@]" (pp_fbody pp_leaf) stmts

(* Rewrite every leaf [l] to [f ctx l], where [ctx] starts at [ctx0] and
   is extended by [loop var] on entry to a loop body and by [branch pred]
   on entry to a branch's arms; frames are transparent. Leaves are visited
   in program order. *)
let map_leaves ?(loop = fun _ c -> c) ?(branch = fun _ c -> c) f ctx0 stmts =
  let rec go ctx = function
    | F_leaf l -> f ctx l
    | F_loop r ->
      F_loop { r with body = List.map (go (loop r.var ctx)) r.body }
    | F_branch (p, t, e) ->
      let c = branch p ctx in
      F_branch (p, List.map (go c) t, List.map (go c) e)
    | F_barrier -> F_barrier
    | F_commit_group -> F_commit_group
    | F_wait_group n -> F_wait_group n
    | F_frame (lbl, body) -> F_frame (lbl, List.map (go ctx) body)
    | F_fail m -> F_fail m
  in
  List.map (go ctx0) stmts

(* ----- pass 1: validate ----- *)

let validate_pass =
  Pass.make ~name:"validate"
    ~doc:"advisory structural diagnostics (shapes, allocations)"
    ~render:(fun (_, diags) ->
      if diags = [] then "ok"
      else String.concat "\n" (List.map (fun d -> "WARN " ^ d) diags))
    (fun (k : Spec.kernel) ->
      (k, Validate.check_shapes k @ Validate.check_allocs k))

(* ----- pass 2: flatten ----- *)

let rec flatten_stmts stmts = List.concat_map flatten_stmt stmts

and flatten_stmt (st : Spec.stmt) : Spec.t fstmt list =
  match st with
  | Spec.Comment _ | Spec.Alloc _ -> []
  | Spec.Sync -> [ F_barrier ]
  | Spec.Commit_group -> [ F_commit_group ]
  | Spec.Wait_group n -> [ F_wait_group n ]
  | Spec.For { var; lo; hi; step; body; _ } ->
    if mentions_tid lo || mentions_tid hi || mentions_tid step then
      [ F_fail (Printf.sprintf "loop %s has thread-dependent bounds" var) ]
    else [ F_loop { var; lo; hi; step; body = flatten_stmts body } ]
  | Spec.If { cond; then_; else_ } ->
    [ F_branch (cond, flatten_stmts then_, flatten_stmts else_) ]
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body ->
      let inner = flatten_stmts body in
      if String.length s.Spec.label > 0 then [ F_frame (s.Spec.label, inner) ]
      else inner
    | None -> [ F_leaf s ])

let flatten_pass =
  Pass.make ~name:"flatten"
    ~doc:"decomposition tree to flat statements (allocs/comments dropped)"
    ~render:(render_fstmts Spec.pp)
    (fun (k : Spec.kernel) -> flatten_stmts k.Spec.body)

(* ----- pass 3: resolve ----- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let kind_prefixes = function
  | Spec.Move -> [ "ld."; "st."; "cp."; "mov"; "cvt"; "ldmatrix" ]
  | Spec.Mat_mul -> [ "mma"; "fma"; "hfma" ]
  | Spec.Unary_pointwise _ -> [ "pointwise.unary" ]
  | Spec.Binary_pointwise _ -> [ "pointwise.binary"; "binary" ]
  | Spec.Reduction _ -> [ "red" ]
  | Spec.Shfl _ -> [ "shfl" ]
  | Spec.Init _ -> [ "init"; "mov" ]
  | Spec.Generic _ -> []

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* The tree interpreter's unmatched-spec message, extended with the
   closest registry candidates of the same family so the user can see
   which signature constraint (dtype, extent, memory space, thread
   count) rejected the spec. *)
let unmatched_message arch (s : Spec.t) =
  let base =
    Format.asprintf "no atomic spec matches %a" Spec.pp
      { s with Spec.decomp = None }
  in
  let cands =
    List.filter
      (fun (i : Atomic.instr) ->
        List.exists (Arch.equal arch) i.Atomic.archs
        && List.exists
             (fun p -> starts_with p i.Atomic.name)
             (kind_prefixes s.Spec.kind))
      Atomic.registry
  in
  match take 6 cands with
  | [] -> base
  | cands ->
    base
    ^ Printf.sprintf "\n  near-miss candidates on %s:" (Arch.name arch)
    ^ String.concat ""
        (List.map
           (fun (i : Atomic.instr) ->
             Printf.sprintf "\n    %-26s %s (%s) -> (%s)" i.Atomic.name
               i.Atomic.sig_threads i.Atomic.sig_ins i.Atomic.sig_outs)
           cands)

let resolve_pass arch =
  Pass.make ~name:"resolve"
    ~doc:"pair each leaf spec with its atomic instruction (once)"
    ~render:
      (render_fstmts (fun fmt ((s : Spec.t), (i : Atomic.instr)) ->
           Format.fprintf fmt "%a@,  -> %s" Spec.pp s i.Atomic.name))
    (map_leaves
       (fun () (s : Spec.t) ->
         match Atomic.find arch s with
         | Some instr -> F_leaf (s, instr)
         | None -> F_fail (unmatched_message arch s))
       ())

(* ----- pass 4: depcheck ----- *)

(* Annotate every resolved leaf with the slot-dependence footprint of its
   views and (for collectives) its member function. The context is the
   enclosing loop binders innermost-first; a shadowing binder simply
   appears twice and the compile pass resolves each name to its innermost
   slot, matching the closures it builds. *)
let depcheck_stmts =
  map_leaves
    ~loop:(fun var loops -> var :: loops)
    (fun loops ((s : Spec.t), (instr : Atomic.instr)) ->
      let per_thread = instr.Atomic.threads = 1 in
      F_leaf (s, instr, Depcheck.of_leaf ~loops s ~per_thread))
    []

let depcheck_pass =
  Pass.make ~name:"depcheck"
    ~doc:"slot-dependence tiers (launch/block/loop/thread) per leaf"
    ~render:
      (render_fstmts
         (fun fmt ((_ : Spec.t), (i : Atomic.instr), (d : Depcheck.leaf)) ->
           let deps ds =
             String.concat ", " (List.map Depcheck.dep_to_string ds)
           in
           Format.fprintf fmt "%s: ins[%s] -> outs[%s]" i.Atomic.name
             (deps d.Depcheck.ins) (deps d.Depcheck.outs);
           match d.Depcheck.members with
           | Some m ->
             Format.fprintf fmt " members[%s]" (Depcheck.dep_to_string m)
           | None -> ()))
    depcheck_stmts

(* ----- pass 5: vectorize ----- *)

(* Annotate every leaf with its widening verdict and bank lint. The
   context is whether the leaf sits under a thread-dependent branch (the
   divergent-mask hazard the legality rules refuse); loop bodies and
   frames are transparent. The pass runs even when widening is disabled —
   the bank lint and the per-view diagnostics are wanted either way, and
   a disabled lowering records [Refused Disabled] on every atomic. *)
let vectorize_stmts ~enabled ~cta_size =
  map_leaves
    ~branch:(fun p divergent -> divergent || pred_mentions_tid p)
    (fun divergent
         ((s : Spec.t), (instr : Atomic.instr), (d : Depcheck.leaf)) ->
      F_leaf
        (s, instr, d, Vectorize.of_leaf ~enabled ~divergent ~cta_size s instr))
    false

let vectorize_pass ~enabled ~cta_size =
  Pass.make ~name:"vectorize"
    ~doc:"unit-stride/alignment legality: widen moves to v2/v4, lint banks"
    ~render:
      (render_fstmts
         (fun
           fmt
           ( (_ : Spec.t)
           , (i : Atomic.instr)
           , (_ : Depcheck.leaf)
           , (v : Vectorize.leaf) )
         -> Format.fprintf fmt "%s: %a" i.Atomic.name Vectorize.pp_leaf v))
    (vectorize_stmts ~enabled ~cta_size)

(* ----- pass 7: compile ----- *)

(* Coordinates of the j-th tile among an ldmatrix source's outer tiles,
   leftmost-fastest — the hardware's matrix order for ldmatrix and the
   mma A operands (row block fastest). *)
let tile_coords outer_dims j =
  let coords, _ =
    List.fold_left
      (fun (acc, rest) d -> ((rest mod d) :: acc, rest / d))
      ([], j) outer_dims
  in
  List.rev coords

let compile_ld_rows st scope ~trans x (src : Ts.t) =
  let outer_dims =
    if Ts.depth src > 1 then
      List.map
        (fun m -> E.to_int_exn (T.size m))
        (T.modes (L.dims src.Ts.layout))
    else []
  in
  Array.init x (fun j ->
      let tile =
        if outer_dims = [] then src
        else Ts.select_ints src (tile_coords outer_dims j)
      in
      Array.init 8 (fun r ->
          let row =
            if trans then Ts.select_ints tile [ 0; r ]
            else Ts.select_ints tile [ r; 0 ]
          in
          Expr_comp.compile_addr0 st scope row))

(* Dense id supply for the executor's per-plan cache arrays. *)
type ids =
  { mutable next_view : int
  ; mutable next_atomic : int
  }

(* Slots of a dep's snapshot variables. Every d_vars name is either a
   builtin (blockIdx.x, in the base scope) or an enclosing loop binder
   (prepended to the scope), so the innermost assoc hit is exactly the
   slot the view closure was compiled against. *)
let dep_slots st scope (d : Depcheck.dep) =
  Array.of_list
    (List.map
       (fun v ->
         match List.assoc_opt v scope with
         | Some slot -> slot
         | None -> Slots.scalar_slot st v)
       d.Depcheck.d_vars)

let rec map3 f a b c =
  match (a, b, c) with
  | [], [], [] -> []
  | x :: a, y :: b, z :: c -> f x y z :: map3 f a b c
  | _ -> invalid_arg "Pipeline.map3"

let compile_atomic st ids scope (s : Spec.t) (instr : Atomic.instr)
    (dleaf : Depcheck.leaf) (vleaf : Vectorize.leaf) : Plan.atomic =
  let cost = instr.Atomic.cost s in
  let is_tc =
    String.length instr.Atomic.name >= 3
    && String.equal (String.sub instr.Atomic.name 0 3) "mma"
  in
  let is_async = starts_with "cp.async" instr.Atomic.name in
  let width =
    match vleaf.Vectorize.l_verdict with
    | Vectorize.Widened w -> w
    | Vectorize.Refused _ -> 1
  in
  let view (v : Ts.t) (d : Depcheck.dep) (vd : Vectorize.verdict) =
    let elt = Dt.size_bytes (Ts.dtype v) in
    let n = try Ts.num_scalars_int v with Invalid_argument _ -> 1 in
    let id = ids.next_view in
    ids.next_view <- id + 1;
    { Plan.v_id = id
    ; v_ts = v
    ; v_mem = v.Ts.mem
    ; v_elt_bytes = elt
    ; v_batch_bytes = n * elt
    ; v_offsets = Expr_comp.compile_view st scope v
    ; v_addr0 = Expr_comp.compile_addr0 st scope v
    ; v_dep = d
    ; v_dep_slots = dep_slots st scope d
    ; v_vec = vd
    ; v_vec_width = width
    }
  in
  let per_thread = instr.Atomic.threads = 1 in
  let a_members =
    if per_thread then None
    else Some (Expr_comp.compile_members st scope s.Spec.threads)
  in
  let a_members_dep = dleaf.Depcheck.members in
  let a_members_slots =
    match a_members_dep with
    | Some d -> dep_slots st scope d
    | None -> [||]
  in
  let a_ldmatrix = Atomic.parse_ldmatrix instr.Atomic.name in
  let a_ld_rows =
    match (a_ldmatrix, s.Spec.ins) with
    | Some (x, trans), [ src ] -> (
      (* A symbolic outer extent makes the row views underivable here;
         fall back to the interpreter's symbolic path, which raises the
         same error the tree path would — and only on execution. *)
      match compile_ld_rows st scope ~trans x src with
      | rows -> Some (rows, Dt.size_bytes (Ts.dtype src))
      | exception _ -> None)
    | _ -> None
  in
  let a_lookup name =
    match List.assoc_opt name scope with
    | Some slot -> Some slot
    | None -> Slots.find_scalar st name
  in
  let a_id = ids.next_atomic in
  ids.next_atomic <- a_id + 1;
  { Plan.a_id
  ; a_spec = s
  ; a_instr = instr
  ; a_cost = cost
  ; a_is_tc = is_tc
  ; a_is_async = is_async
  ; a_dur = max 1 cost.Atomic.instructions
  ; a_label = s.Spec.label
  ; a_kind = Spec.kind_name s.Spec.kind
  ; a_per_thread = per_thread
  ; a_ins = map3 view s.Spec.ins dleaf.Depcheck.ins vleaf.Vectorize.l_ins
  ; a_outs = map3 view s.Spec.outs dleaf.Depcheck.outs vleaf.Vectorize.l_outs
  ; a_members
  ; a_members_dep
  ; a_members_slots
  ; a_ldmatrix
  ; a_ld_rows
  ; a_lookup
  ; a_vec = vleaf.Vectorize.l_verdict
  ; a_vec_width = width
  ; a_fastcopy = vleaf.Vectorize.l_fastcopy && width > 1
  ; a_banks = vleaf.Vectorize.l_banks
  }

let rec compile_stmts st ids b scope stmts =
  List.iter (compile_stmt st ids b scope) stmts

and compile_stmt st ids b scope = function
  | F_leaf (s, instr, dleaf, vleaf) ->
    Bytecode.exec b (compile_atomic st ids scope s instr dleaf vleaf)
  | F_loop { var; lo; hi; step; body } ->
    let lo = Expr_comp.compile st scope lo
    and hi = Expr_comp.compile st scope hi
    and step = Expr_comp.compile st scope step in
    let slot = Slots.fresh_loop st in
    Bytecode.loop b ~var ~slot ~lo ~hi ~step (fun () ->
        compile_stmts st ids b ((var, slot) :: scope) body)
  | F_branch (p, then_, else_) ->
    let cond = Expr_comp.compile_pred st scope p in
    Bytecode.branch b ~divergent:(pred_mentions_tid p) cond
      ~then_:(fun () -> compile_stmts st ids b scope then_)
      ~else_:(fun () -> compile_stmts st ids b scope else_)
  | F_barrier -> Bytecode.barrier b
  | F_commit_group -> Bytecode.commit b
  | F_wait_group n -> Bytecode.wait b n
  | F_frame (label, body) ->
    Bytecode.frame b label (fun () -> compile_stmts st ids b scope body)
  | F_fail msg -> Bytecode.fail b msg

(* Shared allocations are rounded up to the swizzle window: a swizzle
   permutes aligned power-of-two windows, so the allocation holds a
   whole number of them. *)
let shared_alloc_size (t : Ts.t) =
  let cosize = L.cosize t.Ts.layout in
  let w = Shape.Swizzle.window t.Ts.swizzle in
  (cosize + w - 1) / w * w

let compile_pass ~vec_enabled ~pipelining arch diagnostics =
  Pass.make ~name:"compile"
    ~doc:"expressions, predicates and view offsets to closures"
    ~render:(fun (plan : Plan.t) ->
      Plan.to_string plan ^ "\n\n"
      ^ Bytecode.summary ~cta_size:plan.Plan.cta_size plan.Plan.body
      ^ "\n"
      ^ Bytecode.listing plan.Plan.body)
    (fun (k, resolved) ->
      let st = Slots.create () in
      (* Pre-register declared scalar parameters so they keep stable
         slots even when only some views mention them. *)
      List.iter
        (fun p -> ignore (Slots.scalar_slot st p))
        k.Spec.scalar_params;
      let ids = { next_view = 0; next_atomic = 0 } in
      let b = Bytecode.builder () in
      compile_stmts st ids b Slots.base_scope resolved;
      let body = Bytecode.finish b in
      let allocs =
        List.map
          (fun (t : Ts.t) ->
            { Plan.al_buffer = t.Ts.buffer
            ; al_mem = t.Ts.mem
            ; al_dtype = Ts.dtype t
            ; al_size =
                (match t.Ts.mem with
                | Ms.Shared -> shared_alloc_size t
                | Ms.Register -> L.cosize t.Ts.layout
                | Ms.Global -> 0)
            })
          (Spec.allocs k.Spec.body)
      in
      let cta_size = Tt.size k.Spec.cta in
      (* The warp schedule: lanes of each warp of the CTA, ascending.
         Built once per plan; the executor iterates it instead of
         rediscovering warp membership per atomic. *)
      let warp_tids =
        Array.init
          ((cta_size + 31) / 32)
          (fun w ->
            Array.init (min 32 (cta_size - (w * 32))) (fun l -> (w * 32) + l))
      in
      { Plan.kernel = k
      ; arch
      ; nslots = Slots.count st
      ; scalar_slots = Slots.scalar_alist st
      ; cta_size
      ; grid_size = Tt.size k.Spec.grid
      ; allocs
      ; body
      ; n_views = ids.next_view
      ; warp_tids
      ; diagnostics
      ; vec_enabled
      ; pipelining
      })

(* ----- driver ----- *)

(* Software pipelining defaults off (1 stage); GRAPHENE_SWPIPE_STAGES=N
   turns it on process-wide, and the [?stages] parameter overrides —
   the bit-identity tests lower the same kernel at several depths in
   one process. *)
let stages_default () =
  match Sys.getenv_opt "GRAPHENE_SWPIPE_STAGES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let pipelining_of_verdict (v : Swpipe.verdict) : Plan.pipelining =
  let note = Swpipe.verdict_to_string v in
  let refusals =
    List.map
      (fun (var, r) -> (var, Swpipe.reason_to_string r))
      v.Swpipe.refusals
  in
  match v.Swpipe.loops with
  | [] -> { Plan.unpipelined with Plan.pl_note = note; pl_refusals = refusals }
  | loops ->
    { Plan.pl_stages =
        List.fold_left (fun acc p -> max acc p.Swpipe.p_stages) 1 loops
    ; pl_buffers = List.concat_map (fun p -> p.Swpipe.p_buffers) loops
    ; pl_stage_bytes =
        List.fold_left (fun acc p -> acc + p.Swpipe.p_stage_bytes) 0 loops
    ; pl_queue_bound =
        List.fold_left (fun acc p -> max acc p.Swpipe.p_queue_bound) 0 loops
    ; pl_note = note
    ; pl_refusals = refusals
    }

let lower ?log ?vectorize ?stages arch (k : Spec.kernel) : Plan.t =
  let vec_enabled = Option.value vectorize ~default:true in
  let stages =
    match stages with Some n -> max 1 n | None -> stages_default ()
  in
  (match log with
  | Some f ->
    f ~pass:"input" ~doc:"source kernel" (Spec.kernel_to_string k)
  | None -> ());
  let k, diagnostics = Pass.apply ?log validate_pass k in
  (* The statement-level front half, reusable on the swpipe-rewritten
     kernel (the rewrite happens at the spec level, so the rewritten
     loops flow through resolve/depcheck/vectorize like any others). *)
  let front ?log k =
    let flat = Pass.apply ?log flatten_pass k in
    let resolved = Pass.apply ?log (resolve_pass arch) flat in
    let annotated = Pass.apply ?log depcheck_pass resolved in
    let cta_size = Tt.size k.Spec.cta in
    Pass.apply ?log (vectorize_pass ~enabled:vec_enabled ~cta_size) annotated
  in
  let vectorized = front ?log k in
  let swpipe_pass =
    Pass.make ~name:"swpipe"
      ~doc:"software-pipeline async staging loops (rotating shared buffers)"
      ~render:(fun (_, _, pl) -> pl.Plan.pl_note)
      (fun (k, vectorized) ->
        let k', verdict = Swpipe.rewrite arch ~stages k in
        let pl = pipelining_of_verdict verdict in
        match verdict.Swpipe.loops with
        | [] -> (k, vectorized, pl)
        | _ ->
          (* Re-run the front half on the rewritten kernel (without
             re-logging it); the compile pass must receive the
             rewritten kernel so the tree engine re-interprets the
             pipelined form — the two engines agree by construction,
             not by a per-engine proof. *)
          (k', front k', pl))
  in
  let k, vectorized, pipelining =
    Pass.apply ?log swpipe_pass (k, vectorized)
  in
  Pass.apply ?log
    (compile_pass ~vec_enabled ~pipelining arch diagnostics)
    (k, vectorized)

(* ----- the plan cache -----

   Keyed by the (arch, vectorize-enabled, kernel) triple under full
   structural equality.
   [Spec.kernel] is pure data (no closures), so [Stdlib.(=)] is a sound
   key comparison and the generic [Hashtbl.hash] a consistent hash; and
   because scalar parameters appear in the kernel only by NAME (their
   values are bound per launch into the plan's slot array), two launches
   of the same kernel structure with different scalar values share one
   plan — the cache is keyed "modulo scalar parameter values" for free.

   A mutex guards the table: autotuning lowers candidates from several
   domains at once. Lowering itself runs outside the lock; if two domains
   race on the same key, the first insert wins and both share it. *)

type cache_stats =
  { hits : int
  ; misses : int
  }

let cache : (Arch.t * bool * int * Spec.kernel, Plan.t) Hashtbl.t =
  Hashtbl.create 32
let cache_mutex = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

let cache_stats () =
  Mutex.lock cache_mutex;
  let s = { hits = !cache_hits; misses = !cache_misses } in
  Mutex.unlock cache_mutex;
  s

let cache_clear () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  cache_hits := 0;
  cache_misses := 0;
  Mutex.unlock cache_mutex

let lower_cached ?log ?vectorize ?stages arch (k : Spec.kernel) :
    Plan.t * bool =
  match log with
  | Some _ ->
    (* A logging caller wants the per-pass renders, so the pipeline must
       actually run; don't pollute the cache statistics either way. *)
    (lower ?log ?vectorize ?stages arch k, false)
  | None -> (
    let vec_enabled = Option.value vectorize ~default:true in
    let stages =
      match stages with Some n -> max 1 n | None -> stages_default ()
    in
    let key = (arch, vec_enabled, stages, k) in
    Mutex.lock cache_mutex;
    match Hashtbl.find_opt cache key with
    | Some plan ->
      incr cache_hits;
      Mutex.unlock cache_mutex;
      (plan, true)
    | None ->
      incr cache_misses;
      Mutex.unlock cache_mutex;
      let plan = lower ~vectorize:vec_enabled ~stages arch k in
      Mutex.lock cache_mutex;
      let plan =
        match Hashtbl.find_opt cache key with
        | Some first -> first (* lost a race; share the first insert *)
        | None ->
          Hashtbl.add cache key plan;
          plan
      in
      Mutex.unlock cache_mutex;
      (plan, false))
