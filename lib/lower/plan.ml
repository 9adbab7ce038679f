(* The execution-plan IR: what a [Spec.kernel] lowers to, once, before the
   simulator runs it many times.

   A plan's body is one dense int-tagged instruction array (see
   Bytecode for the layout) plus side tables: the atomics it executes,
   the loop-bound and branch-predicate closures, and the label and lazy
   failure pools. Every symbolic quantity is already compiled: loop
   bounds and predicates are closures, each leaf spec carries its
   matched instruction, precomputed cost, and compiled per-view offset
   enumerations — each annotated with its slot-dependence tier (see
   [Depcheck]) so the executor knows what to hoist and cache. *)

module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic

type view =
  { v_id : int  (** dense plan-wide id, indexes the executor's caches *)
  ; v_ts : Ts.t  (** the source view (for semantics dispatch / fallback) *)
  ; v_mem : Ms.t
  ; v_elt_bytes : int
  ; v_batch_bytes : int  (** bytes per thread per access batch *)
  ; v_offsets : Expr_comp.cview
  ; v_addr0 : Expr_comp.cexpr
        (** first scalar offset only ([Expr_comp.no_addr] when empty) —
            what address batching needs, without the full enumeration *)
  ; v_dep : Depcheck.dep  (** slot-dependence tier of [v_offsets] *)
  ; v_dep_slots : int array
        (** slots of [v_dep.d_vars]: the executor's cache-snapshot key *)
  ; v_vec : Vectorize.verdict
        (** this view's own widening capability (diagnostics) *)
  ; v_vec_width : int
        (** executed vector width: the enclosing atomic's width (1 =
            scalar) — what transaction accounting must charge *)
  }

type atomic =
  { a_id : int  (** dense plan-wide id, indexes the executor's group cache *)
  ; a_spec : Spec.t
  ; a_instr : Atomic.instr  (** resolved exactly once, at lowering *)
  ; a_cost : Atomic.cost
  ; a_is_tc : bool
  ; a_is_async : bool
        (** a cp.async data movement: execution defers the destination
            write onto the block's async-copy queue *)
  ; a_dur : int
  ; a_label : string
  ; a_kind : string
  ; a_per_thread : bool
  ; a_ins : view list
  ; a_outs : view list
  ; a_members : (int array -> int -> int array) option
        (** collective instances: probing tid -> sorted member ids *)
  ; a_members_dep : Depcheck.dep option
        (** slot-dependence tier of [a_members] (collectives only) *)
  ; a_members_slots : int array
        (** slots of the member function's non-thread dynamic variables *)
  ; a_ldmatrix : (int * bool) option  (** (x, trans) for ldmatrix traffic *)
  ; a_ld_rows : (Expr_comp.cexpr array array * int) option
        (** compiled per-matrix first-row-byte offsets + element size;
            [None] falls back to the symbolic derivation *)
  ; a_lookup : string -> int option
        (** name -> slot, for symbolic fallbacks (derived views, shfl.idx) *)
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
  ; al_mem : Ms.t
  ; al_dtype : Gpu_tensor.Dtype.t
  ; al_size : int
  }

(* Opcodes of [bc_code] (the instruction layout is documented in
   Bytecode, which re-exports these). *)
let op_exec = 0
let op_loop = 1
let op_branch = 2
let op_branch_div = 3
let op_barrier = 4
let op_frame = 5
let op_fail = 6
let op_commit = 7
let op_wait = 8

(* Words an instruction occupies before its body (opcode included),
   indexed by opcode. *)
let header_words = [| 2; 7; 4; 5; 1; 3; 2; 1; 2 |]

(* The executable body: a dense int-tagged instruction array plus side
   tables. Operands are indices into the side tables; structured ops
   carry body lengths in code words, so the executor walks ranges
   instead of chasing pointers. *)
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

(* What the swpipe pass did to this plan (pl_stages = 1 when nothing
   was pipelined; pl_note carries the per-loop verdict/refusal lines,
   pl_refusals the same refusals structurally — (loop var, reason slug)
   — so schedule search can aggregate them as prune telemetry without
   parsing the note). *)
type pipelining =
  { pl_stages : int
  ; pl_buffers : (string * int) list
  ; pl_stage_bytes : int
  ; pl_queue_bound : int
  ; pl_note : string
  ; pl_refusals : (string * string) list
  }

let unpipelined =
  { pl_stages = 1
  ; pl_buffers = []
  ; pl_stage_bytes = 0
  ; pl_queue_bound = 0
  ; pl_note = "swpipe: off"
  ; pl_refusals = []
  }

type t =
  { kernel : Spec.kernel
  ; arch : Graphene.Arch.t
  ; nslots : int
  ; scalar_slots : (string * int) list
  ; cta_size : int
  ; grid_size : int
  ; allocs : alloc list
  ; body : bytecode
  ; n_views : int  (** total view count = executor view-cache size *)
  ; warp_tids : int array array
        (** precompiled warp schedule: thread ids of each warp of the CTA,
            ascending — built once per plan, never per atomic *)
  ; diagnostics : string list  (** advisory validation findings *)
  ; vec_enabled : bool  (** whether the vectorize pass was allowed to widen *)
  ; pipelining : pipelining
        (** software-pipelining outcome (see {!Swpipe}); [pl_stages = 1]
            means the plan runs single-buffered *)
  }

(* ----- statistics ----- *)

(* Views per dependence tier: (launch, block, loop, thread). *)
let tier_counts bc =
  let launch = ref 0 and block = ref 0 and loop = ref 0 and thread = ref 0 in
  let count v =
    match v.v_dep.Depcheck.d_tier with
    | Depcheck.Launch -> incr launch
    | Depcheck.Block -> incr block
    | Depcheck.Loop -> incr loop
    | Depcheck.Thread -> incr thread
  in
  Array.iter
    (fun a ->
      List.iter count a.a_ins;
      List.iter count a.a_outs)
    bc.bc_atomics;
  (!launch, !block, !loop, !thread)

let is_move (a : atomic) =
  match a.a_spec.Spec.kind with Spec.Move -> true | _ -> false

(* Widening statistics: (widened, per-thread move) atomic counts. *)
let vec_counts bc =
  let widened = ref 0 and moves = ref 0 in
  Array.iter
    (fun a ->
      if a.a_per_thread && is_move a then begin
        incr moves;
        if a.a_vec_width > 1 then incr widened
      end)
    bc.bc_atomics;
  (!widened, !moves)

(* Statically flagged bank-conflict warnings: (atomics flagged, total
   extra cycles per CTA-wide batch). *)
let bank_warning_counts bc =
  let atomics = ref 0 and cycles = ref 0 in
  Array.iter
    (fun a ->
      if a.a_banks <> [] then begin
        incr atomics;
        List.iter (fun (_, c) -> cycles := !cycles + c) a.a_banks
      end)
    bc.bc_atomics;
  (!atomics, !cycles)

(* Histogram of the vectorize pass's refusal reasons over the plan's
   per-thread moves — (reason slug, count), sorted by slug. Only moves
   where widening was conceivable are counted (matching [pp_atomic]'s
   verdict display), so the histogram is exactly the scalar residue a
   schedule search should attribute when a candidate ranks on narrow
   traffic. *)
let refusal_histogram bc =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun a ->
      if a.a_per_thread && is_move a then
        match a.a_vec with
        | Vectorize.Widened _ -> ()
        | Vectorize.Refused r ->
          let name = Vectorize.reason_name r in
          Hashtbl.replace tbl name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    bc.bc_atomics;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Bytes-weighted mean vector width over the global-memory views of
   per-thread moves — the static stand-in for "achieved global access
   width" the perf model consumes. [None] when the plan has no global
   move traffic. The weighting is structural (per atomic, not per
   execution), which matches how the roofline consumes it: a coarse
   plan-level width, not a trace. *)
let global_vec_width bc =
  let bytes = ref 0 and weighted = ref 0 in
  Array.iter
    (fun a ->
      if a.a_per_thread && is_move a then
        List.iter
          (fun v ->
            if Ms.equal v.v_mem Ms.Global then begin
              bytes := !bytes + v.v_batch_bytes;
              weighted := !weighted + (v.v_batch_bytes * v.v_vec_width)
            end)
          (a.a_ins @ a.a_outs))
    bc.bc_atomics;
  if !bytes = 0 then None
  else Some (float_of_int !weighted /. float_of_int !bytes)

(* ----- pretty-printing ----- *)

let pp_view fmt (v : view) =
  Format.fprintf fmt "%%%s[%s,%dB/thread,%s%s]" v.v_ts.Ts.name
    (Ms.to_ir_string v.v_mem) v.v_batch_bytes
    (Depcheck.tier_name v.v_dep.Depcheck.d_tier)
    (if v.v_vec_width > 1 then Printf.sprintf ",v%d" v.v_vec_width else "")

let pp_atomic fmt (a : atomic) =
  Format.fprintf fmt "exec %s  // %s, %s, (%a) -> (%a)"
    a.a_instr.Atomic.name a.a_kind
    (if a.a_per_thread then "per-thread"
     else Printf.sprintf "%d-thread collective" a.a_instr.Atomic.threads)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       pp_view)
    a.a_ins
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       pp_view)
    a.a_outs;
  (match a.a_members_dep with
  | Some d ->
    Format.fprintf fmt "  // members: %s" (Depcheck.tier_name d.Depcheck.d_tier)
  | None -> ());
  (match a.a_vec with
  | Vectorize.Widened w ->
    Format.fprintf fmt "  // vec v%d%s" w
      (if a.a_fastcopy then " contiguous" else "")
  | Vectorize.Refused r ->
    (* Refusal verdicts only where widening was conceivable — per-thread
       moves — so collectives and arithmetic stay uncluttered. *)
    if a.a_per_thread && is_move a then
      Format.fprintf fmt "  // vec scalar: %s" (Vectorize.reason_name r));
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "  // BANK-CONFLICT %%%s: +%d cycles/batch" name c)
    a.a_banks;
  if String.length a.a_label > 0 then Format.fprintf fmt "  // %s" a.a_label

(* Render the instructions in [pc, endpc) one per line, recursing into
   each structured op's body range. *)
let rec pp_range bc fmt (pc, endpc) =
  if pc < endpc then begin
    let next = pp_instr bc fmt pc in
    if next < endpc then Format.pp_print_cut fmt ();
    pp_range bc fmt (next, endpc)
  end

(* Render the instruction at [pc]; returns the pc after it (and its
   bodies). A structured op keeps its body length(s) in its last header
   words, and its body starts right after them. *)
and pp_instr bc fmt pc =
  let code = bc.bc_code in
  let body = pc + header_words.(code.(pc)) in
  let len k = code.(body - k) in
  match code.(pc) with
  | 0 (* exec *) ->
    pp_atomic fmt bc.bc_atomics.(code.(pc + 1));
    body
  | 1 (* loop *) ->
    Format.fprintf fmt "@[<v 2>loop %s (slot %d) {@,%a@]@,}"
      bc.bc_labels.(code.(pc + 5))
      code.(pc + 1) (pp_range bc)
      (body, body + len 1);
    body + len 1
  | (2 | 3) as op (* branch / branch.div *) ->
    let e0 = body + len 2 in
    let next = e0 + len 1 in
    let tag = if op = op_branch_div then " #divergent" else "" in
    if next = e0 then
      Format.fprintf fmt "@[<v 2>branch%s {@,%a@]@,}" tag (pp_range bc)
        (body, e0)
    else
      Format.fprintf fmt "@[<v 2>branch%s {@,%a@]@,} else {@,%a@,}" tag
        (pp_range bc) (body, e0) (pp_range bc) (e0, next);
    next
  | 4 (* barrier *) ->
    Format.fprintf fmt "barrier";
    body
  | 5 (* frame *) ->
    Format.fprintf fmt "@[<v 2>frame %S {@,%a@]@,}"
      bc.bc_labels.(code.(pc + 1))
      (pp_range bc)
      (body, body + len 1);
    body + len 1
  | 6 (* fail *) ->
    (let msg = bc.bc_fails.(code.(pc + 1)) in
     match String.index_opt msg '\n' with
     | None -> Format.fprintf fmt "fail %S" msg
     | Some i -> Format.fprintf fmt "fail %S ..." (String.sub msg 0 i));
    body
  | 7 (* commit *) ->
    Format.fprintf fmt "cp.async.commit_group";
    body
  | _ (* 8, wait *) ->
    Format.fprintf fmt "cp.async.wait_group %d" code.(pc + 1);
    body

let pp fmt t =
  Format.fprintf fmt "@[<v>// plan %s on %s@," t.kernel.Spec.name
    (Graphene.Arch.name t.arch);
  Format.fprintf fmt "// grid %d block(s) x cta %d thread(s), %d env slot(s)@,"
    t.grid_size t.cta_size t.nslots;
  (let l, b, lp, th = tier_counts t.body in
   Format.fprintf fmt
     "// view dependence tiers: %d launch, %d block, %d loop, %d thread@," l b
     lp th);
  (let widened, moves = vec_counts t.body in
   let flagged, cycles = bank_warning_counts t.body in
   Format.fprintf fmt "// vectorize%s: %d of %d per-thread move(s) widened"
     (if t.vec_enabled then "" else " (disabled)")
     widened moves;
   (match global_vec_width t.body with
   | Some w -> Format.fprintf fmt ", mean global width %.2f" w
   | None -> ());
   if flagged > 0 then
     Format.fprintf fmt "; %d atomic(s) bank-conflict flagged (+%d cycles)"
       flagged cycles;
   Format.fprintf fmt "@,");
  if t.scalar_slots <> [] then
    Format.fprintf fmt "// scalar slots: %s@,"
      (String.concat ", "
         (List.map
            (fun (n, s) -> Printf.sprintf "%s=%d" n s)
            t.scalar_slots));
  List.iter
    (fun al ->
      Format.fprintf fmt "alloc %s : %s[%d]@," al.al_buffer
        (Ms.to_ir_string al.al_mem) al.al_size)
    t.allocs;
  if t.pipelining.pl_stages > 1 then
    Format.fprintf fmt "// pipelined: %d stages, %d B/stage, queue bound %d@,"
      t.pipelining.pl_stages t.pipelining.pl_stage_bytes
      t.pipelining.pl_queue_bound;
  if t.diagnostics <> [] then
    List.iter (fun d -> Format.fprintf fmt "// WARN %s@," d) t.diagnostics;
  Format.fprintf fmt "%a@]" (pp_range t.body)
    (0, Array.length t.body.bc_code)

let to_string t = Format.asprintf "%a" pp t
