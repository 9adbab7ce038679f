(* Code generation tests: the CUDA C++ emitter must print the IR the way
   the paper's Figures 1c and 8 show — hoisted launch indices, unrolled
   loops, inline PTX for the tensor instructions. *)

module Arch = Graphene.Arch
module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Plan = Lower.Plan
module Bytecode = Lower.Bytecode

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let cuda ?stages arch k =
  Codegen.Emit.cuda (Lower.Pipeline.lower ?stages arch k)

(* Non-overlapping occurrences of [needle] in [hay]. *)
let count hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i n =
    if i + nl > hl then n
    else if String.equal (String.sub hay i nl) needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let contains hay needle = count hay needle > 0

let assert_contains cuda needles =
  List.iter
    (fun n ->
      if not (contains cuda n) then
        Alcotest.failf "generated CUDA lacks %S:\n%s" n cuda)
    needles

(* ----- Index generation ----- *)

let test_element_offset () =
  let a = Ts.create_rm "A" [ 4; 8 ] Gpu_tensor.Dtype.FP32 Gpu_tensor.Memspace.Global in
  Alcotest.(check int) "k=0" 0
    (E.to_int_exn (Codegen.Index_gen.element_offset a 0));
  (* Enumeration is leftmost-fastest: element 1 is (1,0) -> offset 8. *)
  Alcotest.(check int) "k=1" 8
    (E.to_int_exn (Codegen.Index_gen.element_offset a 1));
  check_str "symbolic ref" "A[i * 8 + 2]"
    (Codegen.Index_gen.ref_string
       (Ts.select a [ E.var "i"; E.const 2 ])
       0)

let test_swizzled_ref () =
  let sw = Shape.Swizzle.make ~bits:2 ~base:3 ~shift:3 in
  let a =
    Ts.create ~swizzle:sw "S" (L.row_major [ 8; 8 ]) Gpu_tensor.Dtype.FP16
      Gpu_tensor.Memspace.Shared
  in
  let r = Codegen.Index_gen.ref_string (Ts.select a [ E.var "r"; E.zero ]) 0 in
  check_bool "xor appears" true (contains r "^")

(* ----- Figure 8: the naive GEMM ----- *)

let fig8_cuda () =
  let k = Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8 ~tn:8 () in
  cuda Arch.SM86 k

let test_fig8_structure () =
  let cuda = fig8_cuda () in
  assert_contains cuda
    [ "extern \"C\" __global__ void gemm_naive"
    ; "const half* __restrict__ A"
    ; "const half* __restrict__ B"
    ; "half* __restrict__ C"  (* output is not const *)
    ; "#pragma unroll"
    ; "for (int k = 0; k < 1024; k += 1)"
    ; "__hfma("
    ; (* hoisted launch indices, as in the paper's generated code *)
      "int idx0 = blockIdx.x % 8 * 131072"
    ; "launch: <<<64, 256>>>"
    ]

let read_file path =
  (* dune runtest runs in _build/default/test; dune exec from the root. *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Golden files: the exact generated CUDA is locked in (regenerate with
   bin/gen_golden.exe after an intentional change). *)
let test_fig8_golden () =
  check_str "fig8 golden" (read_file "golden/fig8_sm86.cu") (fig8_cuda ())

let test_ldmatrix_golden () =
  let k = Kernels.Ldmatrix_demo.kernel () in
  check_str "ldmatrix golden"
    (read_file "golden/ldmatrix_sm86.cu")
    (cuda Arch.SM86 k)

let test_gemm_tc_golden () =
  let k =
    Kernels.Gemm.tensor_core Arch.SM86
      (Kernels.Gemm.test_config Arch.SM86)
      ~epilogue:Kernels.Epilogue.bias_relu ~m:64 ~n:64 ~k:32 ()
  in
  check_str "tensor-core gemm golden"
    (read_file "golden/gemm_tc_sm86.cu")
    (cuda Arch.SM86 k)

(* The CLI's gemm-tc, software-pipelined at 3 stages: the printed
   kernel is the rewritten one the simulator executes (prologue of two
   staged tiles, steady-state [wait_group 2], drain). *)
let tc_stages3 () =
  Kernels.Gemm.tensor_core Arch.SM86
    (Kernels.Gemm.test_config Arch.SM86)
    ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:128 ()

let test_gemm_tc_stages3_golden () =
  let cu = cuda ~stages:3 Arch.SM86 (tc_stages3 ()) in
  check_str "pipelined tensor-core gemm golden"
    (read_file "golden/gemm_tc_sm86_stages3.cu")
    cu;
  check_int "cp.async.cg sites" 4 (count cu "cp.async.cg");
  check_int "commit_group sites" 2 (count cu "cp.async.commit_group");
  check_int "wait_group 2 sites" 1 (count cu "cp.async.wait_group 2;")

let test_fig8_stable () =
  (* Emission is deterministic. *)
  check_str "deterministic" (fig8_cuda ()) (fig8_cuda ())

(* ----- Figure 1: ldmatrix ----- *)

let test_fig1_ldmatrix_asm () =
  let k = Kernels.Ldmatrix_demo.kernel () in
  let cuda = cuda Arch.SM86 k in
  assert_contains cuda
    [ "ldmatrix.sync.aligned.m8n8.x4.shared.b16"
    ; "__cvta_generic_to_shared"
    ; "__shared__ half smem[256];"
    ; "__syncthreads();"
    ; "\"=r\"(*reinterpret_cast<uint32_t*>(&regs["
    ]

(* ----- tensor-core GEMM ----- *)

let test_tc_sm86_cuda () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.bias_relu
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = cuda Arch.SM86 k in
  assert_contains cuda
    [ "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32"
    ; "ldmatrix.sync.aligned.m8n8.x4.shared.b16"
    ; "ldmatrix.sync.aligned.m8n8.x2.trans.shared.b16"
    ; "cp.async.cg.shared.global"
    ; "__shared__ half As["
    ; "fmaxf("  (* relu *)
    ; "__float2half"  (* fp32 accumulator conversion *)
    ]

let test_tc_sm70_cuda () =
  let cfg = Kernels.Gemm.test_config Arch.SM70 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM70 cfg ~epilogue:Kernels.Epilogue.none
      ~m:32 ~n:32 ~k:32 ()
  in
  let cuda = cuda Arch.SM70 k in
  assert_contains cuda
    [ "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32" ];
  (* No Ampere-only instructions on Volta. *)
  check_bool "no cp.async" false (contains cuda "cp.async");
  check_bool "no ldmatrix" false (contains cuda "ldmatrix")

let test_swizzled_smem_decl () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.none
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = cuda Arch.SM86 k in
  (* Swizzled stores/loads xor their index bits. *)
  check_bool "swizzle xor in smem accesses" true (contains cuda " ^ ")

(* ----- fused kernels ----- *)

let test_layernorm_cuda () =
  let k = Kernels.Layernorm.kernel ~rows:4 ~cols:1024 ~nthreads:128 () in
  let cuda = cuda Arch.SM86 k in
  assert_contains cuda
    [ "__shfl_xor_sync(0xffffffffu"
    ; "rsqrtf("
    ; "__shared__ float warp_parts"
    ]

let test_gelu_helper_emitted () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.bias_gelu
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = cuda Arch.SM86 k in
  assert_contains cuda [ "__device__ __forceinline__ float gelu(float x)" ]

let test_fmha_cuda () =
  let k =
    Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:64 ~dh:32 ~chunk:16
      ~nthreads:64 ()
  in
  let cuda = cuda Arch.SM86 k in
  assert_contains cuda
    [ "__expf("; "mma.sync.aligned.m16n8k16"; "__shared__ half Ss[" ]

(* ----- plan / CUDA parity -----

   The printer reads every decision from the plan, so the instruction
   sites in the CUDA text must count exactly what the executed plan
   holds. Each site prints once however many times its loops run. *)

(* Operands of the plan's WAIT instructions, in code order. *)
let wait_operands (bc : Plan.bytecode) =
  let code = bc.Plan.bc_code in
  let rec go pc acc =
    if pc >= Array.length code then List.rev acc
    else
      let op = code.(pc) in
      let acc = if op = Bytecode.op_wait then code.(pc + 1) :: acc else acc in
      go (pc + Plan.header_words.(op)) acc
  in
  go 0 []

(* Vector transactions a widened register<->global move prints: one
   per [a_vec_width] of its per-thread elements. *)
let vector_transactions (a : Plan.atomic) =
  let s = a.Plan.a_spec in
  let mems = List.map (fun (v : Ts.t) -> v.Ts.mem) (s.ins @ s.outs) in
  match s.outs with
  | [ dst ]
    when a.Plan.a_vec_width > 1 && List.mem Ms.Register mems
         && List.mem Ms.Global mems ->
    Ts.num_scalars_int dst / a.Plan.a_vec_width
  | _ -> 0

let check_parity name (plan : Plan.t) =
  let cu = Codegen.Emit.cuda plan in
  let bc = plan.Plan.body in
  let atomics = Array.to_list bc.Plan.bc_atomics in
  let atomics_where p = List.length (List.filter p atomics) in
  let hist = Bytecode.histogram bc in
  let sites what expected needle =
    check_int (Printf.sprintf "%s: %s" name what) expected (count cu needle)
  in
  sites "cp.async.cg" (atomics_where (fun a -> a.Plan.a_is_async))
    "cp.async.cg";
  sites "commit_group" hist.(Bytecode.op_commit) "cp.async.commit_group";
  sites "__syncthreads" hist.(Bytecode.op_barrier) "__syncthreads();";
  let waits = wait_operands bc in
  sites "wait_group" (List.length waits) "cp.async.wait_group ";
  List.iter
    (fun n ->
      sites
        (Printf.sprintf "wait_group %d" n)
        (List.length (List.filter (( = ) n) waits))
        (Printf.sprintf "cp.async.wait_group %d;" n))
    (List.sort_uniq compare waits);
  sites "mma.sync" (atomics_where (fun a -> a.Plan.a_is_tc)) "mma.sync";
  sites "ldmatrix.sync"
    (atomics_where (fun a -> a.Plan.a_ldmatrix <> None))
    "ldmatrix.sync";
  check_int
    (name ^ ": ld/st.global.vW")
    (List.fold_left (fun n a -> n + vector_transactions a) 0 atomics)
    (count cu "ld.global.v" + count cu "st.global.v")

let test_plan_parity () =
  let lower = Lower.Pipeline.lower in
  let tc arch ~m ~n ~k epilogue =
    Kernels.Gemm.tensor_core arch (Kernels.Gemm.test_config arch) ~epilogue
      ~m ~n ~k ()
  in
  List.iter
    (fun (name, plan) -> check_parity name plan)
    [ ( "fig8"
      , lower Arch.SM86
          (Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8
             ~tn:8 ()) )
    ; ("ldmatrix", lower Arch.SM86 (Kernels.Ldmatrix_demo.kernel ()))
    ; ( "tc sm86"
      , lower Arch.SM86
          (tc Arch.SM86 ~m:64 ~n:64 ~k:32 Kernels.Epilogue.bias_relu) )
    ; ( "tc sm70"
      , lower Arch.SM70 (tc Arch.SM70 ~m:32 ~n:32 ~k:32 Kernels.Epilogue.none)
      )
    ; ( "layernorm"
      , lower Arch.SM86
          (Kernels.Layernorm.kernel ~rows:4 ~cols:1024 ~nthreads:128 ()) )
    ; ( "fmha"
      , lower Arch.SM86
          (Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:64 ~dh:32
             ~chunk:16 ~nthreads:64 ()) )
    ; ("tc sm86 3-stage", lower ~stages:3 Arch.SM86 (tc_stages3 ()))
    ]

(* ----- scalar (parametric) kernel parameters ----- *)

let test_scalar_params () =
  let a =
    Ts.create "A"
      (L.row_major_e [ E.var "M"; E.var "N" ])
      Gpu_tensor.Dtype.FP16 Gpu_tensor.Memspace.Global
  in
  let grid = Gpu_tensor.Thread_tensor.grid "grid" [ 1 ] in
  let cta = Gpu_tensor.Thread_tensor.cta "cta" [ 32 ] in
  let thr = Gpu_tensor.Thread_tensor.select cta [ Graphene.Builder.thread_idx ] in
  let kernel =
    Graphene.Builder.kernel "param_test" ~scalar_params:[ "M"; "N" ] ~grid ~cta
      ~params:[ a ]
      [ Graphene.Builder.if_
          Graphene.Builder.(Graphene.Builder.thread_idx <. E.var "N")
          [ Graphene.Builder.init ~threads:thr 0.0
              ~dst:(Ts.select a [ E.zero; Graphene.Builder.thread_idx ])
              ()
          ]
      ]
  in
  let cuda = cuda Arch.SM86 kernel in
  assert_contains cuda [ "int M"; "int N"; "threadIdx.x < N" ]

(* ----- IR pretty-printing (the paper's listing style) ----- *)

let test_ir_listing () =
  let k = Kernels.Gemm.naive ~m:64 ~n:64 ~k:64 ~bm:16 ~bn:16 ~tm:4 ~tn:4 () in
  let ir = Graphene.Spec.kernel_to_string k in
  List.iter
    (fun n ->
      if not (contains ir n) then Alcotest.failf "IR listing lacks %S:\n%s" n ir)
    [ "%A:((64,64):(64,1)).fp16.GL"
    ; "#grid:((4,4):(1,4)).block"
    ; "MatMul <<<#cta>>>"
    ; "#unroll"
    ]

let () =
  Alcotest.run "codegen"
    [ ( "index_gen"
      , [ Alcotest.test_case "element offsets" `Quick test_element_offset
        ; Alcotest.test_case "swizzled refs" `Quick test_swizzled_ref
        ] )
    ; ( "figures"
      , [ Alcotest.test_case "fig8 naive gemm" `Quick test_fig8_structure
        ; Alcotest.test_case "fig8 deterministic" `Quick test_fig8_stable
        ; Alcotest.test_case "fig8 golden file" `Quick test_fig8_golden
        ; Alcotest.test_case "ldmatrix golden file" `Quick test_ldmatrix_golden
        ; Alcotest.test_case "tensor-core gemm golden file" `Quick
            test_gemm_tc_golden
        ; Alcotest.test_case "pipelined gemm golden file" `Quick
            test_gemm_tc_stages3_golden
        ; Alcotest.test_case "fig1 ldmatrix asm" `Quick test_fig1_ldmatrix_asm
        ] )
    ; ( "kernels"
      , [ Alcotest.test_case "sm86 tensor core" `Quick test_tc_sm86_cuda
        ; Alcotest.test_case "sm70 tensor core" `Quick test_tc_sm70_cuda
        ; Alcotest.test_case "swizzled smem" `Quick test_swizzled_smem_decl
        ; Alcotest.test_case "layernorm" `Quick test_layernorm_cuda
        ; Alcotest.test_case "gelu helper" `Quick test_gelu_helper_emitted
        ; Alcotest.test_case "fmha" `Quick test_fmha_cuda
        ; Alcotest.test_case "scalar params" `Quick test_scalar_params
        ; Alcotest.test_case "plan/CUDA parity" `Quick test_plan_parity
        ] )
    ; ( "ir"
      , [ Alcotest.test_case "paper-style listing" `Quick test_ir_listing ] )
    ]
