let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let cuda ?stages kernel =
  Codegen.Emit.cuda (Lower.Pipeline.lower ?stages Graphene.Arch.SM86 kernel)

let () =
  let fig8 = Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8 ~tn:8 () in
  write "test/golden/fig8_sm86.cu" (cuda fig8);
  write "test/golden/ldmatrix_sm86.cu" (cuda (Kernels.Ldmatrix_demo.kernel ()));
  let tc ~epilogue ~k =
    Kernels.Gemm.tensor_core Graphene.Arch.SM86
      (Kernels.Gemm.test_config Graphene.Arch.SM86)
      ~epilogue ~m:64 ~n:64 ~k ()
  in
  write "test/golden/gemm_tc_sm86.cu"
    (cuda (tc ~epilogue:Kernels.Epilogue.bias_relu ~k:32));
  (* The CLI's gemm-tc, software-pipelined at 3 stages. *)
  write "test/golden/gemm_tc_sm86_stages3.cu"
    (cuda ~stages:3 (tc ~epilogue:Kernels.Epilogue.none ~k:128));
  (* Golden profiler report — must mirror profile_gemm in
     test/test_profiler.ml: same kernel, zero-filled inputs. *)
  let arch = Graphene.Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let args =
    List.map
      (fun (p : Gpu_tensor.Tensor.t) ->
        ( p.Gpu_tensor.Tensor.name
        , Array.make (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) 0.0 ))
      kernel.Graphene.Spec.params
  in
  let profiler = Gpu_sim.Profiler.create () in
  let counters = Gpu_sim.Interp.run ~arch ~profiler kernel ~args () in
  let report =
    Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters
      ~machine:(Gpu_sim.Machine.of_arch arch) ()
  in
  write "test/golden/profile_gemm_tc_sm86.json"
    (Gpu_sim.Profiler.report_to_json report)
