(* Quickstart: the paper's Figure 8 end to end.

   Build the simplest complete GEMM decomposition in Graphene IR, print the
   IR listing and the generated CUDA C++, then execute the same IR on the
   simulated GPU and check it against the CPU reference.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Express the kernel: C = A @ B with 128x128 block tiles and 8x8
        outputs per thread, exactly Figure 8. *)
  let m = 1024 and n = 1024 and k = 1024 in
  let kernel = Kernels.Gemm.naive ~m ~n ~k ~bm:128 ~bn:128 ~tm:8 ~tn:8 () in

  (* 2. The IR is just data: print it the way the paper lists it. *)
  print_endline "===== Graphene IR (paper Figure 8) =====";
  print_endline (Graphene.Spec.kernel_to_string kernel);

  (* 3. Validate: every undecomposed spec must match an atomic spec. *)
  (match Graphene.Validate.check Graphene.Arch.SM86 kernel with
  | [] -> print_endline "\nvalidation: ok (all specs atomic or decomposed)"
  | problems -> List.iter print_endline problems);

  (* 4. Generate CUDA C++ — code generation is printing the IR. *)
  print_endline "\n===== Generated CUDA C++ =====";
  print_string (Codegen.Emit.cuda (Lower.Pipeline.lower Graphene.Arch.SM86 kernel));

  (* 5. Execute on the simulated GPU (a smaller instance: the interpreter
        runs every thread) and compare against the CPU reference. *)
  let m = 64 and n = 64 and k = 32 in
  let small = Kernels.Gemm.naive ~m ~n ~k ~bm:16 ~bn:16 ~tm:4 ~tn:4 () in
  let a = Reference.Cpu_ref.random_fp16 ~seed:1 (m * k) in
  let b = Reference.Cpu_ref.random_fp16 ~seed:2 (k * n) in
  let c = Array.make (m * n) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch:Graphene.Arch.SM86 small
      ~args:[ ("A", a); ("B", b); ("C", c) ]
      ()
  in
  let c_ref = Array.make (m * n) 0.0 in
  Reference.Cpu_ref.gemm ~m ~n ~k a b c_ref;
  Format.printf "\n===== Simulated execution (%dx%dx%d) =====@." m n k;
  Format.printf "matches CPU reference: %b@."
    (Reference.Cpu_ref.allclose c c_ref);
  Format.printf "%a@." Gpu_sim.Counters.pp counters;

  (* 6. Estimate performance of the optimized tensor-core version at the
        paper's Figure 9 problem size. *)
  let machine = Gpu_sim.Machine.a6000 in
  let m = 5376 and n = 5376 and k = 2048 in
  let tc =
    Kernels.Gemm.tensor_core Graphene.Arch.SM86
      (Kernels.Gemm.default_config Graphene.Arch.SM86)
      ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()
  in
  let est = Gpu_sim.Perf_model.of_kernel machine tc () in
  Format.printf
    "\n===== Optimized tensor-core GEMM, Figure 9 size (%dx%dx%d) =====@." m n
    k;
  Format.printf "%a@." Gpu_sim.Perf_model.pp est;
  Format.printf "achieved %.1f TFLOP/s of %.1f peak@."
    (Gpu_sim.Perf_model.tflops est
       ~flops:(2.0 *. float_of_int m *. float_of_int n *. float_of_int k))
    (Gpu_sim.Machine.tc_peak_flops machine /. 1e12)
