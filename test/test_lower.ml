(* Tests for the lowering pipeline and the compiled-plan executor:

   - plan/tree equivalence: for every kernel family, [Interp.run_plan]
     must produce bit-identical counters, instruction mixes, profiler
     report JSON, and output buffers to [Interp.run_tree];
   - Atomic.find is called exactly once per leaf spec per lowering and
     never at execution time;
   - compiled view offsets match the symbolic enumeration;
   - lazy error semantics (unmatched leaves, unbound scalars);
   - the Counters.add_instr_n and Atomic.parse_ldmatrix satellites. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- plan/tree equivalence ----- *)

(* Run the kernel through the tree reference and the plan (bytecode
   engine, the default domain count) with identical inputs; the oracle
   demands bit-identical contract counters, instruction mixes, profiler
   reports, traces and output buffers. *)
let check_equiv ?(scalars = []) ?args name arch kernel =
  let args =
    match args with
    | Some a -> a
    | None ->
      List.mapi
        (fun i (p : Ts.t) ->
          (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
        kernel.Spec.params
  in
  Oracle_check.check ~profile:true ~scalars name ~reference:kernel
    (Pipeline.lower arch kernel) ~args
    [ (Interp.Bytecode, Gpu_sim.Domain_pool.default_domains ()) ]

let test_equiv_gemm_tc () =
  List.iter
    (fun arch ->
      let cfg = Kernels.Gemm.test_config arch in
      let m, n = if arch = Arch.SM70 then (32, 32) else (64, 64) in
      check_equiv
        (Printf.sprintf "gemm-tc %s" (Arch.name arch))
        arch
        (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m
           ~n ~k:32 ()))
    [ Arch.SM86; Arch.SM70 ]

let test_equiv_gemm_naive () =
  check_equiv "gemm-naive" Arch.SM86
    (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())

let test_equiv_gemm_parametric () =
  (* Scalar parameters exercise the slot-environment path; ragged sizes
     exercise predicated partial tiles (divergent branches). *)
  let m = 30 and n = 20 and k = 10 in
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:m ~launch_n:n ~bm:16 ~bn:16 ~tm:4
      ~tn:4 ()
  in
  let args =
    [ ("A", Ref.random_fp16 ~seed:14 (m * k))
    ; ("B", Ref.random_fp16 ~seed:15 (k * n))
    ; ("C", Array.make (m * n) 0.0)
    ]
  in
  check_equiv "gemm-parametric" Arch.SM86 kernel ~args
    ~scalars:[ ("M", m); ("N", n); ("K", k) ]

let test_equiv_fmha () =
  check_equiv "fmha sm86" Arch.SM86
    (Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
       ~nthreads:64 ());
  check_equiv "fmha sm70" Arch.SM70
    (Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
       ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())

let test_equiv_lstm () =
  check_equiv "lstm" Arch.SM86
    (Kernels.Lstm.kernel Arch.SM86
       (Kernels.Gemm.test_config Arch.SM86)
       ~m:64 ~n:64 ~k:64 ())

let test_equiv_mlp () =
  check_equiv "mlp" Arch.SM86
    (Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
       ~wn:32 ())

let test_equiv_layernorm () =
  check_equiv "layernorm" Arch.SM86
    (Kernels.Layernorm.kernel ~rows:2 ~cols:256 ~nthreads:64 ())

let test_equiv_softmax () =
  check_equiv "softmax" Arch.SM86
    (Kernels.Softmax.kernel ~rows:2 ~cols:128 ~nthreads:64 ())

let test_equiv_gemm_layernorm () =
  check_equiv "gemm+layernorm" Arch.SM86
    (Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
       ~wm:32 ~wn:32 ())

(* ----- Atomic.find call counting ----- *)

let count_leaves kernel =
  Spec.fold_specs
    (fun acc s -> if s.Spec.decomp = None then acc + 1 else acc)
    0 kernel.Spec.body

let test_find_called_once_per_leaf () =
  let arch = Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let leaves = count_leaves kernel in
  check_bool "kernel has leaves" true (leaves > 0);
  let before = !Atomic.find_calls in
  let plan = Pipeline.lower arch kernel in
  check_int "one find per leaf during lowering" (before + leaves)
    !Atomic.find_calls;
  check_int "every leaf resolved" leaves
    (Array.length plan.Plan.body.Plan.bc_atomics);
  let args =
    List.map
      (fun (p : Ts.t) ->
        (p.Ts.name, Array.make (L.cosize p.Ts.layout) 0.0))
      kernel.Spec.params
  in
  let after_lower = !Atomic.find_calls in
  ignore (Interp.run_plan plan ~args ());
  ignore (Interp.run_plan plan ~args ());
  check_int "zero finds during plan execution" after_lower !Atomic.find_calls

(* ----- compiled offsets vs symbolic enumeration ----- *)

let test_compiled_offsets_match () =
  let arch = Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let views =
    Spec.fold_specs
      (fun acc s ->
        if s.Spec.decomp = None then acc @ s.Spec.ins @ s.Spec.outs else acc)
      [] kernel.Spec.body
  in
  check_bool "collected views" true (views <> []);
  let checked = ref 0 in
  List.iter
    (fun v ->
      (* Give every free variable of this view a slot; bind loop vars to
         a small non-zero value so strides actually matter. *)
      let extra =
        List.filter
          (fun n -> not (List.mem_assoc n Lower.Slots.base_scope))
          (Ts.free_vars v)
      in
      let scope =
        Lower.Slots.base_scope @ List.mapi (fun i n -> (n, 2 + i)) extra
      in
      let st = Lower.Slots.create () in
      let cview = Lower.Expr_comp.compile_view st scope v in
      List.iter
        (fun tid ->
          let bs =
            ("threadIdx.x", tid) :: ("blockIdx.x", 0)
            :: List.mapi (fun i n -> (n, (i mod 2) + 1)) extra
          in
          let env_arr =
            Array.make (List.length scope + Lower.Slots.count st + 8) 0
          in
          List.iter
            (fun (name, value) ->
              match List.assoc_opt name scope with
              | Some slot -> env_arr.(slot) <- value
              | None -> ())
            bs;
          let sym = Ts.scalar_offsets ~env:(fun n -> List.assoc n bs) v in
          let compiled = cview env_arr in
          incr checked;
          Alcotest.(check (array int))
            (Printf.sprintf "offsets of %%%s (tid %d)" v.Ts.name tid)
            sym compiled)
        [ 0; 5; 31; 64; 127 ])
    views;
  check_bool "checked some views" true (!checked > 0)

(* ----- lazy error semantics ----- *)

(* A kernel whose guarded leaf (a 7-element register move) matches no
   atomic spec; [dead] makes the guard statically false. *)
let lazy_kernel dead =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let a = Ts.create_rm "A" [ 32 ] Dt.FP32 Ms.Global in
  let dst = Ts.select a [ B.thread_idx ] in
  let r = Ts.create "r" (L.vector 7) Dt.FP32 Ms.Register in
  let bogus = B.move ~threads:thr ~src:r ~dst:(Ts.select a [ E.zero ]) () in
  B.kernel "lazy" ~grid ~cta ~params:[ a ]
    [ Graphene.Spec.Alloc r
    ; B.if_ B.(E.const (if dead then 1 else 0) ==. E.zero) [ bogus ]
    ; B.init ~threads:thr 1.0 ~dst ()
    ]

let test_unmatched_leaf_is_lazy () =
  let kernel = lazy_kernel in
  (* Unreachable unmatched leaf: lowering succeeds, execution succeeds. *)
  let plan = Pipeline.lower Arch.SM86 (kernel true) in
  let buf = Array.make 32 0.0 in
  ignore (Interp.run_plan plan ~args:[ ("A", buf) ] ());
  check_bool "dead unmatched leaf never fires" true (buf.(0) = 1.0);
  (* Reachable: the same diagnostic the tree interpreter raises. *)
  let plan_live = Pipeline.lower Arch.SM86 (kernel false) in
  check_bool "live unmatched leaf raises" true
    (try
       ignore (Interp.run_plan plan_live ~args:[ ("A", Array.make 32 0.0) ] ());
       false
     with Interp.Exec_error msg ->
       let has sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length msg
           && (String.equal (String.sub msg i n) sub || go (i + 1))
         in
         go 0
       in
       has "no atomic spec matches" && has "near-miss candidates")

let test_unbound_scalar_message () =
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:16 ~launch_n:16 ~bm:16 ~bn:16
      ~tm:4 ~tn:4 ()
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let args =
    [ ("A", Array.make 256 0.0); ("B", Array.make 256 0.0)
    ; ("C", Array.make 256 0.0)
    ]
  in
  check_bool "missing scalar raises the tree path's message" true
    (try
       ignore (Interp.run_plan plan ~args ());
       false
     with Interp.Exec_error msg ->
       (try
          ignore (Interp.run_tree ~arch:Arch.SM86 kernel ~args ());
          false
        with Interp.Exec_error msg' -> String.equal msg msg'))

(* ----- satellites: add_instr_n, parse_ldmatrix ----- *)

let test_add_instr_n () =
  let a = C.create () and b = C.create () in
  List.iter
    (fun (name, n) ->
      C.add_instr_n a name n;
      for _ = 1 to n do
        C.add_instr b name
      done)
    [ ("fma.rn.f32", 3); ("ldmatrix.x4", 1); ("fma.rn.f32", 2)
    ; ("mma.m16n8k16", 0); ("cp.async.f16x8", 128)
    ];
  Alcotest.(check (list (pair string int)))
    "mix equals n repeated add_instr" (C.instr_mix_alist b)
    (C.instr_mix_alist a);
  check_int "instructions equal" b.C.instructions a.C.instructions

let test_parse_ldmatrix () =
  let check_case name expected =
    Alcotest.(check (option (pair int bool)))
      name expected (Atomic.parse_ldmatrix name)
  in
  check_case "ldmatrix.x1" (Some (1, false));
  check_case "ldmatrix.x2" (Some (2, false));
  check_case "ldmatrix.x4" (Some (4, false));
  check_case "ldmatrix.x1.trans" (Some (1, true));
  check_case "ldmatrix.x2.trans" (Some (2, true));
  check_case "ldmatrix.x4.trans" (Some (4, true));
  check_case "ldmatrix" None;
  check_case "ldmatrix.x" None;
  check_case "ldmatrix.xa" None;
  check_case "ldmatrix.x4.t" None;
  check_case "ldmatrix.x4.transpose" None;
  check_case "mma.m16n8k16" None;
  check_case "" None

(* ----- plan listing pin -----

   [Plan.to_string] renders every op, view tier, vector verdict, bank
   lint and pipelining header of a plan, so its digest pins what the
   compile pass emits. One row per kernel family, one digest per
   (vectorize, stages) combination in [listing_configs] order; any change
   to the emitted plan or to its rendering moves a digest here. *)

let listing_configs = [ (true, 1); (true, 3); (false, 1); (false, 3) ]

let listing_families =
  (* k = 4 staging tiles, so the sm86 plan pipelines at 3 stages. *)
  let gemm_tc arch =
    let m, n = if arch = Arch.SM70 then (32, 32) else (64, 64) in
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m ~n ~k:128 ()
  in
  [ ("gemm-tc sm86", Arch.SM86, fun () -> gemm_tc Arch.SM86)
  ; ("gemm-tc sm70", Arch.SM70, fun () -> gemm_tc Arch.SM70)
  ; ( "gemm-naive"
    , Arch.SM86
    , fun () ->
        Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 () )
  ; ( "gemm-parametric"
    , Arch.SM86
    , fun () ->
        Kernels.Gemm.naive_parametric ~launch_m:30 ~launch_n:20 ~bm:16
          ~bn:16 ~tm:4 ~tn:4 () )
  ; ( "fmha sm86"
    , Arch.SM86
    , fun () ->
        Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16
          ~chunk:16 ~nthreads:64 () )
  ; ( "fmha sm70"
    , Arch.SM70
    , fun () ->
        Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
          ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 () )
  ; ( "lstm"
    , Arch.SM86
    , fun () ->
        Kernels.Lstm.kernel Arch.SM86
          (Kernels.Gemm.test_config Arch.SM86)
          ~m:64 ~n:64 ~k:64 () )
  ; ( "mlp"
    , Arch.SM86
    , fun () ->
        Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
          ~wn:32 () )
  ; ( "layernorm"
    , Arch.SM86
    , fun () -> Kernels.Layernorm.kernel ~rows:2 ~cols:256 ~nthreads:64 () )
  ; ( "softmax"
    , Arch.SM86
    , fun () -> Kernels.Softmax.kernel ~rows:2 ~cols:128 ~nthreads:64 () )
  ; ( "gemm+layernorm"
    , Arch.SM86
    , fun () ->
        Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
          ~wm:32 ~wn:32 () )
  ; ("ldmatrix", Arch.SM86, Kernels.Ldmatrix_demo.kernel)
  ; ("lazy-fail", Arch.SM86, fun () -> lazy_kernel false)
  ]

let pinned_listings =
  [ ( "gemm-tc sm86"
    , [ "ce48047a4d89934d58d98be93065b934"; "34e4358f6db7d2983b6cebd1f8c9981a"
      ; "4ff618ce1f0bd86f0a34a466ec55934a"; "12e69cb1123241763cb2e6321987feeb" ] )
  ; ( "gemm-tc sm70"
    , [ "29f912333cdd712d32c4be528d7b1fa6"; "29f912333cdd712d32c4be528d7b1fa6"
      ; "565f93583c7de25a966e796f0a83e019"; "565f93583c7de25a966e796f0a83e019" ] )
  ; ( "gemm-naive"
    , [ "be03dd01e3ebe5cf00070f4c863027d3"; "be03dd01e3ebe5cf00070f4c863027d3"
      ; "9db7e243fa966f1f2955c5c4688d3c4b"; "9db7e243fa966f1f2955c5c4688d3c4b" ] )
  ; ( "gemm-parametric"
    , [ "5a5ba68f4f878b357e8696938344cb06"; "5a5ba68f4f878b357e8696938344cb06"
      ; "22b9651073091b64414afa084cab675d"; "22b9651073091b64414afa084cab675d" ] )
  ; ( "fmha sm86"
    , [ "f22b83f0defa6618e56355ac2281a6cc"; "f22b83f0defa6618e56355ac2281a6cc"
      ; "ec37c9162c5d9ff89fe458f538a58623"; "ec37c9162c5d9ff89fe458f538a58623" ] )
  ; ( "fmha sm70"
    , [ "5f5cee7e3e1105087bec2d3bf47f3aaa"; "5f5cee7e3e1105087bec2d3bf47f3aaa"
      ; "20683d76d57812570a96b811109f1196"; "20683d76d57812570a96b811109f1196" ] )
  ; ( "lstm"
    , [ "5eef0313fbface16a85d08dd996d7817"; "5eef0313fbface16a85d08dd996d7817"
      ; "2e963a5ac1c0caa32493089561a4326f"; "2e963a5ac1c0caa32493089561a4326f" ] )
  ; ( "mlp"
    , [ "f057ca006aa5b08c5dbf14a2275d365b"; "f057ca006aa5b08c5dbf14a2275d365b"
      ; "ca06ea9de74883cd7fd5917ebf19591e"; "ca06ea9de74883cd7fd5917ebf19591e" ] )
  ; ( "layernorm"
    , [ "272b34864e71426bcd410bcb698d619f"; "272b34864e71426bcd410bcb698d619f"
      ; "3e1ca7fae34d35ec36b19101a88d07a9"; "3e1ca7fae34d35ec36b19101a88d07a9" ] )
  ; ( "softmax"
    , [ "0a7b7bfc61c8aa30d2278628ed8a4344"; "0a7b7bfc61c8aa30d2278628ed8a4344"
      ; "747fcbccc07f912c2fcc8ea5f582bb1c"; "747fcbccc07f912c2fcc8ea5f582bb1c" ] )
  ; ( "gemm+layernorm"
    , [ "67a3d5579411b80c94e620b71fac7148"; "67a3d5579411b80c94e620b71fac7148"
      ; "a7e0d7a41aad5f73ba75c0e2795e6c7f"; "a7e0d7a41aad5f73ba75c0e2795e6c7f" ] )
  ; ( "ldmatrix"
    , [ "118f3cabd6e3afca82f898fa45940fe2"; "118f3cabd6e3afca82f898fa45940fe2"
      ; "a4d005bfb86aab0c3d1857fc80e9711e"; "a4d005bfb86aab0c3d1857fc80e9711e" ] )
  ; ( "lazy-fail"
    , [ "c3eb6f1df5b822a8e5b7864fc04ebc69"; "c3eb6f1df5b822a8e5b7864fc04ebc69"
      ; "eaf96da7b5e22e99bc15ce0633d85b64"; "eaf96da7b5e22e99bc15ce0633d85b64" ] )
  ]

let test_listing_pin () =
  let digests =
    List.map
      (fun (name, arch, mk) ->
        ( name
        , List.map
            (fun (vectorize, stages) ->
              Pipeline.lower ~vectorize ~stages arch (mk ())
              |> Plan.to_string |> Digest.string |> Digest.to_hex)
            listing_configs ))
      listing_families
  in
  Alcotest.(check (list (pair string (list string))))
    "listing digests" pinned_listings digests

let () =
  Alcotest.run "lower"
    [ ( "plan/tree equivalence",
        [ Alcotest.test_case "gemm tensor-core (both arches)" `Quick
            test_equiv_gemm_tc
        ; Alcotest.test_case "gemm naive" `Quick test_equiv_gemm_naive
        ; Alcotest.test_case "gemm parametric (scalars)" `Quick
            test_equiv_gemm_parametric
        ; Alcotest.test_case "fmha (both arches)" `Quick test_equiv_fmha
        ; Alcotest.test_case "lstm" `Quick test_equiv_lstm
        ; Alcotest.test_case "mlp" `Quick test_equiv_mlp
        ; Alcotest.test_case "layernorm" `Quick test_equiv_layernorm
        ; Alcotest.test_case "softmax" `Quick test_equiv_softmax
        ; Alcotest.test_case "fused gemm+layernorm" `Quick
            test_equiv_gemm_layernorm
        ] )
    ; ( "pipeline",
        [ Alcotest.test_case "find called once per leaf" `Quick
            test_find_called_once_per_leaf
        ; Alcotest.test_case "compiled offsets match symbolic" `Quick
            test_compiled_offsets_match
        ; Alcotest.test_case "unmatched leaf stays lazy" `Quick
            test_unmatched_leaf_is_lazy
        ; Alcotest.test_case "unbound scalar message" `Quick
            test_unbound_scalar_message
        ; Alcotest.test_case "listing pin" `Quick test_listing_pin
        ] )
    ; ( "satellites",
        [ Alcotest.test_case "add_instr_n" `Quick test_add_instr_n
        ; Alcotest.test_case "parse_ldmatrix" `Quick test_parse_ldmatrix
        ] )
    ]
