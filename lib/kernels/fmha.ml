module E = Shape.Int_expr
module L = Shape.Layout
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op
module Arch = Graphene.Arch

let row_block = 16

let flop_count ~batch ~heads ~seq ~dh =
  (* two GEMMs + softmax (~5 flops/score) *)
  batch * heads * ((2 * seq * seq * dh * 2) + (5 * seq * seq))

let log2i n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let neg_huge = -3.0e38

(* The structural constraints [kernel] enforces, as one predicate — the
   schedule search enumerates (chunk, nthreads) points against it
   rather than re-deriving the divisibility rules. *)
let supports ~seq ~dh ~chunk ~nthreads =
  let warps = nthreads / 32 in
  warps >= 1
  && seq mod chunk = 0
  && chunk mod (8 * warps) = 0
  && dh mod 16 = 0
  && dh mod (8 * warps) = 0
  && seq mod (nthreads / row_block) = 0

let kernel ?(name = "fmha") ?(swizzle_smem = true) ?(causal = false) arch
    ~batch ~heads ~seq ~dh ~chunk ~nthreads () =
  let warps = nthreads / 32 in
  if seq mod chunk <> 0 then invalid_arg "Fmha: seq must divide by chunk";
  if chunk mod (8 * warps) <> 0 then
    invalid_arg "Fmha: chunk must divide by 8 * warps";
  if dh mod (8 * warps) <> 0 || dh mod 16 <> 0 then
    invalid_arg "Fmha: dh must divide by 16 and 8 * warps";
  if seq mod (nthreads / row_block) <> 0 then
    invalid_arg "Fmha: seq must divide by threads-per-row";
  let rows = batch * heads * seq in
  let q = Ts.create_rm "Q" [ rows; dh ] Dt.FP16 Ms.Global in
  let k = Ts.create_rm "K" [ rows; dh ] Dt.FP16 Ms.Global in
  let v = Ts.create_rm "V" [ rows; dh ] Dt.FP16 Ms.Global in
  let o = Ts.create_rm "O" [ rows; dh ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ seq / row_block; batch * heads ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let rb, bh =
    match B.block_coords grid with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  (* Global base row of this block's queries / of the head's K and V. *)
  let q_row0 =
    E.add (E.mul bh (E.const seq)) (E.mul rb (E.const row_block))
  in
  let kv_row0 = E.mul bh (E.const seq) in
  let use_cp_async = match arch with Arch.SM86 -> true | Arch.SM70 -> false in
  let use_ldmatrix = match arch with Arch.SM86 -> true | Arch.SM70 -> false in
  (* Shared memory: the Q strip, a K/V staging chunk, and the score
     matrix; the latter padded to a power-of-two leading dimension and
     swizzled when requested. *)
  let sw_kv =
    if swizzle_smem then Sw.make ~bits:2 ~base:3 ~shift:(log2i dh - 2)
    else Sw.none
  in
  let ss_ld = if swizzle_smem then next_pow2 seq else seq in
  let sw_ss =
    if swizzle_smem then Sw.make ~bits:2 ~base:3 ~shift:(log2i ss_ld - 2)
    else Sw.none
  in
  let qs, al_qs =
    B.alloc_shared ~swizzle:sw_kv "Qs" (L.row_major [ row_block; dh ]) Dt.FP16
  in
  let kv, al_kv =
    B.alloc_shared ~swizzle:sw_kv "KVs" (L.row_major [ chunk; dh ]) Dt.FP16
  in
  let ss, al_ss =
    B.alloc_shared ~swizzle:sw_ss "Ss" (L.row_major [ row_block; ss_ld ])
      Dt.FP16
  in
  let pipe_s =
    Tc_pipeline.create ~prefix:"s_" arch ~cta ~bm:row_block ~bn:chunk
      ~wm:row_block ~wn:(chunk / warps) ~use_ldmatrix
  in
  let pipe_o =
    Tc_pipeline.create ~prefix:"o_" arch ~cta ~bm:row_block ~bn:dh
      ~wm:row_block ~wn:(dh / warps) ~use_ldmatrix
  in
  let stg = Staging.create ~thr ~nthreads ~vw:8 ~use_cp_async ~prefix:"kv_" () in
  let out_w = match arch with Arch.SM86 -> 2 | Arch.SM70 -> 4 in
  let s32, al_s32 = B.alloc_regs "s32" (L.vector out_w) Dt.FP32 in
  let s16, al_s16 = B.alloc_regs "s16" (L.vector out_w) Dt.FP16 in
  let scale_rf, al_sc = B.alloc_regs "scale" (L.vector 1) Dt.FP32 in
  let ss_groups = B.vec_tile ss out_w in
  (* ----- phase 1: S = Q K^T / sqrt(dh), chunk by chunk ----- *)
  let s_phase =
    B.for_ "cb" (E.const (seq / chunk)) (fun cb ->
        [ Staging.copy stg ~src:k
            ~src_row0:(E.add kv_row0 (E.mul cb (E.const chunk)))
            ~src_col0:E.zero ~dst:kv
        ]
        @ Staging.fence [ stg ]
        @ [ B.sync ]
        @ Tc_pipeline.init_acc pipe_s
        @ Tc_pipeline.accumulate pipe_s ~a:qs ~a_row0:E.zero ~a_col0:E.zero
            ~b:
              (Tc_pipeline.B_n_major
                 { t = kv; row0 = E.zero; col0 = E.zero; ld = dh })
            ~kc:dh
        @ Tc_pipeline.foreach_out pipe_s (fun ~row ~col ~width ~acc ->
              let scol = E.add (E.mul cb (E.const chunk)) col in
              [ B.binary ~label:"scale scores" ~threads:thr Op.Mul ~lhs:acc
                  ~rhs:scale_rf ~dst:s32 ()
              ; B.move ~label:"cvt f32->f16" ~threads:thr ~src:s32 ~dst:s16 ()
              ; B.move ~label:"store scores (SH)" ~threads:thr ~src:s16
                  ~dst:(Ts.select ss_groups [ row; E.div scol (E.const width) ])
                  ()
              ])
        @ [ B.sync ])
  in
  (* ----- phase 2: in-place softmax over the score rows ----- *)
  let tpr = nthreads / row_block in
  let cpt = seq / tpr in
  let row_t = E.div tid (E.const tpr) in
  let seg = E.rem tid (E.const tpr) in
  let ss_segs = B.vec_tile ss cpt in
  let ss_seg = Ts.select ss_segs [ row_t; seg ] in
  let e_rf, al_e = B.alloc_regs "e_rf" (L.vector cpt) Dt.FP32 in
  let p16, al_p = B.alloc_regs "p16" (L.vector 8) Dt.FP16 in
  let mx, al_mx = B.alloc_regs "mx" (L.vector 1) Dt.FP32 in
  let sum, al_sm = B.alloc_regs "sum" (L.vector 1) Dt.FP32 in
  let tmp, al_tp = B.alloc_regs "tmp" (L.vector 1) Dt.FP32 in
  let rf_win w buf off =
    Ts.reinterpret buf ~layout:(L.vector w) ~elem:(Ts.Scalar (Ts.dtype buf))
      ~offset:off
  in
  let rf_win8 buf i = rf_win 8 buf (E.mul i (E.const 8)) in
  let ss_seg_win w =
    let t = Ts.tile ss_seg [ None; L.tile_spec w ] in
    fun i -> Ts.select t [ E.zero; i ]
  in
  let ss_seg_win8 = ss_seg_win 8 in
  (* P is stored in 8-wide windows; a segment of [cpt] probabilities
     with [cpt mod 8 <> 0] ends in one narrower tail window. The kernel's
     shape constraints make [cpt] a multiple of 4, so the tail starts on
     a multiple of its own width. *)
  let full8 = cpt / 8 and tail = cpt mod 8 in
  let store_tail =
    if tail = 0 then []
    else
      [ B.move ~label:"cvt+pack" ~threads:thr
          ~src:(rf_win tail e_rf (E.const (full8 * 8)))
          ~dst:(rf_win tail p16 E.zero) ()
      ; B.move ~label:"store P (SH)" ~threads:thr ~src:(rf_win tail p16 E.zero)
          ~dst:(ss_seg_win tail (E.const (full8 * 8 / tail)))
          ()
      ]
  in
  (* Causal masking (autoregressive attention): scores with key index
     greater than the query index are forced to -inf before the softmax. *)
  let mask =
    if not causal then []
    else
      let query = E.add (E.mul rb (E.const row_block)) row_t in
      [ B.for_ ~unroll:true "j" (E.const cpt) (fun j ->
            let key = E.add (E.mul seg (E.const cpt)) j in
            [ B.if_
                (Graphene.Spec.Cmp (Graphene.Spec.Gt, key, query))
                [ B.init ~label:"mask score" ~threads:thr neg_huge
                    ~dst:(Ts.select ss [ row_t; key ])
                    ()
                ]
            ])
      ; B.sync
      ]
  in
  let softmax =
    mask
    @ [ B.init ~threads:thr neg_huge ~dst:mx ()
    ; B.reduction ~label:"row max" ~threads:thr Op.Max ~axes:[ 1 ] ~src:ss_seg
        ~dst:mx ()
      ]
    @ Block_reduce.warp_reduce ~warp ~op:Op.Max ~value:mx ~tmp ~width:tpr
    @ [ B.binary ~label:"x - max" ~threads:thr Op.Sub ~lhs:ss_seg ~rhs:mx
          ~dst:e_rf ()
      ; B.unary ~threads:thr Op.Exp ~src:e_rf ~dst:e_rf ()
      ; B.init ~threads:thr 0.0 ~dst:sum ()
      ; B.reduction ~label:"row sum" ~threads:thr Op.Add ~axes:[ 1 ] ~src:e_rf
          ~dst:sum ()
      ]
    @ Block_reduce.warp_reduce ~warp ~op:Op.Add ~value:sum ~tmp ~width:tpr
    @ [ B.unary ~label:"1/sum" ~threads:thr Op.Recip ~src:sum ~dst:sum ()
      ; B.binary ~threads:thr Op.Mul ~lhs:e_rf ~rhs:sum ~dst:e_rf ()
      ; B.for_ ~unroll:true "v" (E.const full8) (fun i ->
            [ B.move ~label:"cvt+pack" ~threads:thr ~src:(rf_win8 e_rf i)
                ~dst:p16 ()
            ; B.move ~label:"store P (SH)" ~threads:thr ~src:p16
                ~dst:(ss_seg_win8 i) ()
            ])
      ]
    @ store_tail
    @ [ B.sync ]
  in
  (* ----- phase 3: O = P V, accumulated over V chunks ----- *)
  let o_groups = B.vec_tile o out_w in
  let o16, al_o16 = B.alloc_regs "o16" (L.vector out_w) Dt.FP16 in
  let o_phase =
    Tc_pipeline.init_acc pipe_o
    @ [ B.for_ "cb" (E.const (seq / chunk)) (fun cb ->
            [ Staging.copy stg ~src:v
                ~src_row0:(E.add kv_row0 (E.mul cb (E.const chunk)))
                ~src_col0:E.zero ~dst:kv
            ]
            @ Staging.fence [ stg ]
            @ [ B.sync ]
            @ Tc_pipeline.accumulate pipe_o ~a:ss ~a_row0:E.zero
                ~a_col0:(E.mul cb (E.const chunk))
                ~b:
                  (Tc_pipeline.B_k_major
                     { t = kv; row0 = E.zero; col0 = E.zero; ld = dh })
                ~kc:chunk
            @ [ B.sync ])
      ]
    @ Tc_pipeline.foreach_out pipe_o (fun ~row ~col ~width ~acc ->
          [ B.move ~label:"cvt f32->f16" ~threads:thr ~src:acc ~dst:o16 ()
          ; B.move ~label:"store O" ~threads:thr ~src:o16
              ~dst:
                (Ts.select o_groups
                   [ E.add q_row0 row; E.div col (E.const width) ])
              ()
          ])
  in
  let body =
    [ al_qs; al_kv; al_ss; al_s32; al_s16; al_sc; al_e; al_p; al_mx; al_sm
    ; al_tp; al_o16
    ]
    @ Tc_pipeline.allocs pipe_s @ Tc_pipeline.allocs pipe_o
    @ Staging.allocs stg
    @ [ B.init ~threads:thr (1.0 /. Float.sqrt (float_of_int dh)) ~dst:scale_rf ()
      ; B.comment "stage the Q strip"
      ; Staging.copy stg ~src:q ~src_row0:q_row0 ~src_col0:E.zero ~dst:qs
      ]
    @ Staging.fence [ stg ]
    @ [ B.comment "phase 1: S = Q K^T * (1/sqrt(dh))"
      ; s_phase
      ; B.comment "phase 2: P = softmax(S) in shared memory"
      ]
    @ softmax
    @ [ B.comment "phase 3: O = P V" ]
    @ o_phase
  in
  let fused =
    B.generic "fused_multi_head_attention" ~threads:cta ~ins:[ q; k; v ]
      ~outs:[ o ] body
  in
  B.kernel name ~grid ~cta ~params:[ q; k; v; o ] [ fused ]
