module E = Shape.Int_expr
module Ts = Gpu_tensor.Tensor
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Op = Graphene.Op

let with_tid env tid v =
  if String.equal v "threadIdx.x" then tid else env v

(* ----- fragment layouts ----- *)

let mma_m16n8k16_a_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g, 2 * t)
   ; (g, (2 * t) + 1)
   ; (g + 8, 2 * t)
   ; (g + 8, (2 * t) + 1)
   ; (g, (2 * t) + 8)
   ; (g, (2 * t) + 9)
   ; (g + 8, (2 * t) + 8)
   ; (g + 8, (2 * t) + 9)
  |]

let mma_m16n8k16_b_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (2 * t, g); ((2 * t) + 1, g); ((2 * t) + 8, g); ((2 * t) + 9, g) |]

let mma_m16n8k16_c_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g, 2 * t); (g, (2 * t) + 1); (g + 8, 2 * t); (g + 8, (2 * t) + 1) |]

let ldmatrix_frag_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g mod 8, 2 * t); (g mod 8, (2 * t) + 1) |]

let mma_m8n8k4_a_coords q =
  Array.init 4 (fun i -> ((4 * (q / 4)) + i, q mod 4))

let mma_m8n8k4_b_coords q =
  Array.init 4 (fun i -> (q mod 4, (4 * (q / 4)) + i))

let mma_m8n8k4_c_coords q =
  Array.init 8 (fun k ->
      let i = k / 4 and j = k mod 4 in
      (((q mod 4) * 2) + i, (4 * (q / 4)) + j))

(* The coordinate functions above are pure in the lane index, so the
   executors index precomputed 32-entry tables instead of re-allocating
   the coordinate arrays for every lane of every instruction instance
   (the per-lane arrays dominated the allocation profile of mma-heavy
   kernels). Lanes beyond 31 — which no real fragment layout produces —
   fall back to the original function. *)
let tab32 f = Array.init 32 f

let tabbed tab f lane =
  if lane < 32 then Array.unsafe_get tab lane else f lane

let mma_m16n8k16_a = tabbed (tab32 mma_m16n8k16_a_coords) mma_m16n8k16_a_coords
let mma_m16n8k16_b = tabbed (tab32 mma_m16n8k16_b_coords) mma_m16n8k16_b_coords
let mma_m16n8k16_c = tabbed (tab32 mma_m16n8k16_c_coords) mma_m16n8k16_c_coords
let mma_m8n8k4_a = tabbed (tab32 mma_m8n8k4_a_coords) mma_m8n8k4_a_coords
let mma_m8n8k4_b = tabbed (tab32 mma_m8n8k4_b_coords) mma_m8n8k4_b_coords
let mma_m8n8k4_c = tabbed (tab32 mma_m8n8k4_c_coords) mma_m8n8k4_c_coords
let ldmatrix_frag = tabbed (tab32 ldmatrix_frag_coords) ldmatrix_frag_coords

(* Domain-local scratch buffers. The executors below run millions of
   small gather/compute/scatter steps and their intermediate
   [float array]s dominated the minor heap; each buffer grows
   monotonically and is private to its domain, so parallel block ranges
   never share one. Every value read or written through a scratch buffer
   is identical to what the previous allocate-per-call code produced. *)
let scratch_key () = Domain.DLS.new_key (fun () -> ref [||])
let s_move = scratch_key ()
let s_va = scratch_key ()
let s_vb = scratch_key ()
let s_vc = scratch_key ()
let s_frag = scratch_key ()
let s_tile = scratch_key ()
let s_ma = scratch_key ()
let s_mb = scratch_key ()
let s_mc = scratch_key ()
let s_md = scratch_key ()
let s_m64 = scratch_key ()

let scratch key n =
  let r = Domain.DLS.get key in
  if Array.length !r < n then r := Array.make n 0.0;
  !r

(* ----- helpers ----- *)

let single_io (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ i ], [ o ] -> (i, o)
  | _ -> invalid_arg "Semantics: arity"

(* Every executor addresses views through [offs : Ts.t -> int -> int array],
   the per-thread element offsets of a view. [exec] (below) derives them
   symbolically from [env]; a compiled execution plan passes its
   precomputed offset closures to [exec_coded] instead. *)

(* ----- per-thread instructions ----- *)

let exec_thread_move mem (s : Spec.t) offs tid =
  let src, dst = single_io s in
  let s_offs = offs src tid in
  let n = Array.length s_offs in
  let data = scratch s_move n in
  Memory.read_offs_into mem ~tid src s_offs data;
  Memory.write_offs_n mem ~tid dst (offs dst tid) data ~len:n

(* The vector-widened fast path of a full-span contiguous move: each
   active lane's enumeration is exactly [base, base + n) on both sides
   (proved by the vectorize pass), so the whole per-thread batch moves as
   one contiguous copy without materializing offsets. Lanes run in
   ascending order and elements ascend within a lane — the same gather /
   round / scatter order, bounds checks and fault messages as issuing
   [exec_thread_move] per lane. *)
let exec_warp_move_contig mem (s : Spec.t) ~tids ~src_bases ~dst_bases ~lanes
    ~n =
  let src, dst = single_io s in
  let data = scratch s_move n in
  for l = 0 to lanes - 1 do
    let tid = Array.unsafe_get tids l in
    Memory.read_contig_into mem ~tid src
      ~base:(Array.unsafe_get src_bases l)
      ~len:n data;
    Memory.write_contig mem ~tid dst
      ~base:(Array.unsafe_get dst_bases l)
      data ~len:n
  done

(* Deferred cp.async: read the source NOW (into fresh arrays — the offset
   and scratch buffers the executors pass around are reused, so a thunk
   must own its data), defer the shared-memory write onto the block's
   async queue. All counter accounting for the copy happens at issue time
   in the interpreter, exactly as for the synchronous move it replaces —
   only the data landing is deferred to the draining wait_group. *)
let exec_thread_cp_async mem (s : Spec.t) offs tid =
  let src, dst = single_io s in
  let s_offs = offs src tid in
  let n = Array.length s_offs in
  let data = Array.make n 0.0 in
  Memory.read_offs_into mem ~tid src s_offs data;
  let d_offs = Array.copy (offs dst tid) in
  Memory.async_stage mem (fun () ->
      Memory.write_offs_n mem ~tid dst d_offs data ~len:n)

(* The contiguous fast-path form (vector-widened full-span copies):
   per-lane reads at issue, per-lane deferred writes in the same lane
   order at drain. *)
let exec_warp_cp_async_contig mem (s : Spec.t) ~tids ~src_bases ~dst_bases
    ~lanes ~n =
  let src, dst = single_io s in
  for l = 0 to lanes - 1 do
    let tid = Array.unsafe_get tids l in
    let data = Array.make n 0.0 in
    Memory.read_contig_into mem ~tid src
      ~base:(Array.unsafe_get src_bases l)
      ~len:n data;
    let dbase = Array.unsafe_get dst_bases l in
    Memory.async_stage mem (fun () ->
        Memory.write_contig mem ~tid dst ~base:dbase data ~len:n)
  done

let exec_thread_fma mem (s : Spec.t) offs tid =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    let va = Memory.read_offs mem ~tid a (offs a tid) in
    let vb = Memory.read_offs mem ~tid b (offs b tid) in
    let c_offs = offs c tid in
    let vc = Memory.read_offs mem ~tid c c_offs in
    let vd = Array.mapi (fun i x -> (va.(i) *. vb.(i)) +. x) vc in
    Memory.write_offs mem ~tid c c_offs vd
  | _ -> invalid_arg "fma arity"

let exec_thread_unary mem op (s : Spec.t) offs tid =
  let src, dst = single_io s in
  let data = Memory.read_offs mem ~tid src (offs src tid) in
  let d_offs = offs dst tid in
  let n = Array.length d_offs in
  let get i = if Array.length data = 1 then data.(0) else data.(i) in
  Memory.write_offs mem ~tid dst d_offs
    (Array.init n (fun i -> Op.eval_unary op (get i)))

let exec_thread_binary mem op (s : Spec.t) offs tid =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    let va = Memory.read_offs mem ~tid a (offs a tid) in
    let vb = Memory.read_offs mem ~tid b (offs b tid) in
    (* Size-1 operands broadcast. *)
    let n = max (Array.length va) (Array.length vb) in
    let get v i = if Array.length v = 1 then v.(0) else v.(i) in
    Memory.write_offs mem ~tid c (offs c tid)
      (Array.init n (fun i -> Op.eval_binary op (get va i) (get vb i)))
  | _ -> invalid_arg "binary arity"

let exec_thread_reduction mem op axes (s : Spec.t) offs tid =
  let src, dst = single_io s in
  let data = Memory.read_offs mem ~tid src (offs src tid) in
  let d_offs = offs dst tid in
  let out0 = Memory.read_offs mem ~tid dst d_offs in
  if Array.length out0 = 1 then begin
    (* Full reduction, accumulating into the destination. *)
    let acc = Array.fold_left (Op.eval_binary op) out0.(0) data in
    Memory.write_offs mem ~tid dst d_offs [| acc |]
  end
  else begin
    (* Partial reduction of a rank-2 view along one axis. The view
       enumerates leftmost-fastest: linear = i + rows * j for (i, j). *)
    let no = Array.length out0 in
    let ni = Array.length data in
    let red = ni / no in
    let out = Array.copy out0 in
    (match axes with
    | [ 0 ] ->
      (* reduce over the first (fastest) mode: out has extent = #cols *)
      for j = 0 to no - 1 do
        for i = 0 to red - 1 do
          out.(j) <- Op.eval_binary op out.(j) data.((j * red) + i)
        done
      done
    | _ ->
      (* reduce over the trailing mode(s) *)
      for i = 0 to no - 1 do
        for j = 0 to red - 1 do
          out.(i) <- Op.eval_binary op out.(i) data.((j * no) + i)
        done
      done);
    Memory.write_offs mem ~tid dst d_offs out
  end

let exec_thread_init mem v (s : Spec.t) offs tid =
  match s.Spec.outs with
  | [ dst ] ->
    let d_offs = offs dst tid in
    Memory.write_offs mem ~tid dst d_offs
      (Array.make (Array.length d_offs) v)
  | _ -> invalid_arg "init arity"

(* ----- collective instructions ----- *)

let exec_ldmatrix mem x (s : Spec.t) offs members =
  let src, dst = single_io s in
  let lane0 = members.(0) in
  (* The source enumerates its outer tiles slowest and leftmost-fastest —
     the same order as [Lower.Pipeline.tile_coords] — so the j-th 8x8
     matrix is a contiguous slice of the full offset enumeration. *)
  let src_offs = offs src lane0 in
  let tiles =
    if Ts.depth src > 1 then Shape.Layout.size_int src.Ts.layout else 1
  in
  let per_tile = Array.length src_offs / tiles in
  let data = scratch s_tile per_tile in
  let m = scratch s_m64 64 in
  for j = 0 to x - 1 do
    let t0 = if tiles > 1 then j * per_tile else 0 in
    Memory.read_sub_offs_into mem ~tid:lane0 src src_offs ~pos:t0
      ~len:per_tile data;
    (* 8x8, leftmost (row) fastest: linear = r + 8 * c. Transposed into
       [m] (row-major) before distributing, so a short tile still faults
       before any fragment write. *)
    for c = 0 to 7 do
      for r = 0 to 7 do
        if (c * 8) + r >= per_tile then invalid_arg "index out of bounds";
        m.((r * 8) + c) <- data.((c * 8) + r)
      done
    done;
    (* Distribute fragments per the PTX mapping. The destination buffer
       is resolved once per lane (slab), not once per scalar. *)
    for lane = 0 to Array.length members - 1 do
      let tid = Array.unsafe_get members lane in
      let coords = ldmatrix_frag lane in
      let d_offs = offs dst tid in
      let sl = Memory.slab mem ~tid dst in
      for c = 0 to Array.length coords - 1 do
        let r, col = Array.unsafe_get coords c in
        Memory.write_k_slab sl dst d_offs ((2 * j) + c) m.((r * 8) + col)
      done
    done
  done

let exec_mma mem ~m ~n ~k ~a_coords ~b_coords ~c_coords (s : Spec.t) offs
    members =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    (* Flat row-major matrices in reusable scratch (zeroed, like the
       fresh matrices they replace). *)
    let ma = scratch s_ma (m * k) in
    let mb = scratch s_mb (k * n) in
    let mc = scratch s_mc (m * n) in
    Array.fill ma 0 (m * k) 0.0;
    Array.fill mb 0 (k * n) 0.0;
    Array.fill mc 0 (m * n) 0.0;
    (* Gather fragments. *)
    let get v len i =
      if i >= len then invalid_arg "index out of bounds"
      else Array.unsafe_get v i
    in
    for lane = 0 to Array.length members - 1 do
      let tid = Array.unsafe_get members lane in
      let ao = offs a tid and bo = offs b tid and co = offs c tid in
      let la = Array.length ao
      and lb = Array.length bo
      and lc = Array.length co in
      let va = scratch s_va la
      and vb = scratch s_vb lb
      and vc = scratch s_vc lc in
      Memory.read_offs_into mem ~tid a ao va;
      Memory.read_offs_into mem ~tid b bo vb;
      Memory.read_offs_into mem ~tid c co vc;
      let ac = a_coords lane in
      for i = 0 to Array.length ac - 1 do
        let r, col = Array.unsafe_get ac i in
        ma.((r * k) + col) <- get va la i
      done;
      let bc = b_coords lane in
      for i = 0 to Array.length bc - 1 do
        let r, col = Array.unsafe_get bc i in
        mb.((r * n) + col) <- get vb lb i
      done;
      let cc = c_coords lane in
      for i = 0 to Array.length cc - 1 do
        let r, col = Array.unsafe_get cc i in
        mc.((r * n) + col) <- get vc lc i
      done
    done;
    (* D = A @ B + C in fp32. The running sum lives in [md]'s cell, not
       an OCaml [ref]: flat float-array stores stay unboxed without
       flambda, where a float ref boxes every [:=] — one minor-heap
       block per multiply-add, the old dominant allocation of tensor-core
       kernels. Addition order is unchanged (i, j, then ascending k), so
       results stay bitwise identical. *)
    let md = scratch s_md (m * n) in
    for i = 0 to m - 1 do
      let ik = i * k and im = i * n in
      for j = 0 to n - 1 do
        let ij = im + j in
        Array.unsafe_set md ij (Array.unsafe_get mc ij);
        for kk = 0 to k - 1 do
          Array.unsafe_set md ij
            (Array.unsafe_get md ij
            +. Array.unsafe_get ma (ik + kk)
               *. Array.unsafe_get mb ((kk * n) + j))
        done
      done
    done;
    (* Scatter the accumulator fragments. *)
    for lane = 0 to Array.length members - 1 do
      let tid = Array.unsafe_get members lane in
      let coords = c_coords lane in
      let nc = Array.length coords in
      let frag = scratch s_frag nc in
      for i = 0 to nc - 1 do
        let r, col = Array.unsafe_get coords i in
        Array.unsafe_set frag i md.((r * n) + col)
      done;
      Memory.write_offs_n mem ~tid c (offs c tid) frag ~len:nc
    done
  | _ -> invalid_arg "mma arity"

let exec_shfl mem kind (s : Spec.t) env offs members =
  let src, dst = single_io s in
  let nlanes = Array.length members in
  let values =
    Array.map
      (fun tid -> Memory.read_offs mem ~tid src (offs src tid))
      members
  in
  Array.iteri
    (fun lane tid ->
      let partner =
        match kind with
        | Spec.Bfly mask -> lane lxor mask
        | Spec.Up d -> if lane - d >= 0 then lane - d else lane
        | Spec.Down d -> if lane + d < nlanes then lane + d else lane
        | Spec.Idx e -> E.eval ~env:(with_tid env tid) e mod nlanes
      in
      let p = if partner >= 0 && partner < nlanes then partner else lane in
      Memory.write_offs mem ~tid dst (offs dst tid) values.(p))
    members

(* ----- dispatch ----- *)

(* [classify] decides which executor an instruction needs from its name
   and spec kind; [exec_coded] dispatches on the resulting tag. The
   bytecode executor classifies once per (instr, spec) at executor-state
   build time; the tree interpreter's [exec] classifies per call. *)

type code =
  | C_ldmatrix of int
  | C_mma_m16n8k16
  | C_mma_m8n8k4
  | C_shfl of Spec.shfl_kind
  | C_cp_async
  | C_move
  | C_fma
  | C_unary of Op.unary
  | C_binary of Op.binary
  | C_reduction of Op.binary * int list
  | C_init of float
  | C_generic

let classify ~(instr : Atomic.instr) ~(spec : Spec.t) =
  let name = instr.Atomic.name in
  match Atomic.parse_ldmatrix name with
  | Some (x, _) -> C_ldmatrix x
  | None ->
    if Lower.Pipeline.starts_with "mma.m16n8k16" name then C_mma_m16n8k16
    else if String.equal "mma.m8n8k4" name then C_mma_m8n8k4
    else if Lower.Pipeline.starts_with "cp.async" name then C_cp_async
    else (
      match spec.Spec.kind with
      | Spec.Shfl kind -> C_shfl kind
      | Spec.Move -> C_move
      | Spec.Mat_mul -> C_fma
      | Spec.Unary_pointwise op -> C_unary op
      | Spec.Binary_pointwise op -> C_binary op
      | Spec.Reduction { op; axes } -> C_reduction (op, axes)
      | Spec.Init v -> C_init v
      | Spec.Generic _ -> C_generic)

let unhandled name members =
  invalid_arg
    (Printf.sprintf "Semantics.exec: unhandled instruction %s (%d members)"
       name (Array.length members))

let exec_coded ?trace ?(block = 0) ~offs mem code ~(instr : Atomic.instr)
    ~spec ~env ~members =
  (match trace with
  | Some tr ->
    Trace.instant tr
      ~name:("sem:" ^ instr.Atomic.name)
      ~cat:"sem" ~pid:block
      ~tid:(members.(0) / 32)
      ~args:
        [ ("lane0", Trace.Int members.(0))
        ; ("lanes", Trace.Int (Array.length members))
        ]
      ()
  | None -> ());
  match code with
  | C_ldmatrix x -> exec_ldmatrix mem x spec offs members
  | C_mma_m16n8k16 ->
    exec_mma mem ~m:16 ~n:8 ~k:16 ~a_coords:mma_m16n8k16_a
      ~b_coords:mma_m16n8k16_b ~c_coords:mma_m16n8k16_c spec offs members
  | C_mma_m8n8k4 ->
    exec_mma mem ~m:8 ~n:8 ~k:4 ~a_coords:mma_m8n8k4_a ~b_coords:mma_m8n8k4_b
      ~c_coords:mma_m8n8k4_c spec offs members
  | C_shfl kind -> exec_shfl mem kind spec env offs members
  | C_cp_async ->
    if Array.length members = 1 then
      exec_thread_cp_async mem spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_move ->
    if Array.length members = 1 then exec_thread_move mem spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_fma ->
    if Array.length members = 1 then exec_thread_fma mem spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_unary op ->
    if Array.length members = 1 then
      exec_thread_unary mem op spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_binary op ->
    if Array.length members = 1 then
      exec_thread_binary mem op spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_reduction (op, axes) ->
    if Array.length members = 1 then
      exec_thread_reduction mem op axes spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_init v ->
    if Array.length members = 1 then
      exec_thread_init mem v spec offs members.(0)
    else unhandled instr.Atomic.name members
  | C_generic -> unhandled instr.Atomic.name members

let exec ?trace ?block mem ~instr ~spec ~env ~members =
  let offs v tid = Ts.scalar_offsets ~env:(with_tid env tid) v in
  exec_coded ?trace ?block ~offs mem (classify ~instr ~spec) ~instr ~spec ~env
    ~members
