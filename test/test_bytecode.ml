(* Tests for the bytecode plan executor (the compile pass's bytecode
   builder plus [Interp.run_plan]'s dispatch loop):

   - cross-engine determinism: for every kernel family, both
     [Interp.engine]s ([Tree], [Bytecode]) at domains
     ∈ {1, 4, 7} must produce counters, profiler report JSON, Chrome
     traces, and output buffers bit-identical to the tree reference;
   - the bytecode encoding itself: pinned opcode numbers (the executor
     dispatches on integer literals), histogram consistency, one EXEC
     per atomic id, and the builder's exact word layout;
   - cost-based chunking: [Domain_pool.cost_chunk_size] bounds and
     monotonicity, [cost_chunks] covering [0, total) ascending. *)

module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Interp = Gpu_sim.Interp
module Profiler = Gpu_sim.Profiler
module Trace = Gpu_sim.Trace
module Domain_pool = Gpu_sim.Domain_pool
module Plan = Lower.Plan
module Bytecode = Lower.Bytecode
module Pipeline = Lower.Pipeline
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- cross-engine determinism ----- *)

let engines = [ Interp.Tree; Interp.Bytecode ]
let domain_counts = [ 1; 4; 7 ]

(* Run the kernel through every engine at every domain count; the
   oracle demands contract counters (every field under [~ignore:[]]),
   profiler report JSON, Chrome traces, and output buffers bit-identical
   to the 1-domain tree reference. *)
let check_engines ?(scalars = []) ?args ?ignore name arch kernel =
  let args =
    match args with
    | Some a -> a
    | None ->
      List.mapi
        (fun i (p : Ts.t) ->
          (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
        kernel.Spec.params
  in
  Oracle_check.check ~profile:true ?ignore ~scalars name ~reference:kernel
    (Pipeline.lower arch kernel) ~args
    (List.concat_map
       (fun engine -> List.map (fun d -> (engine, d)) domain_counts)
       engines)

let test_eng_gemm_tc () =
  List.iter
    (fun arch ->
      let cfg = Kernels.Gemm.test_config arch in
      let m, n = if arch = Arch.SM70 then (64, 64) else (128, 128) in
      check_engines
        (Printf.sprintf "gemm-tc %s" (Arch.name arch))
        arch
        (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m
           ~n ~k:32 ()))
    [ Arch.SM86; Arch.SM70 ]

let test_eng_gemm_naive () =
  check_engines "gemm-naive" Arch.SM86
    (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())

let test_eng_gemm_parametric () =
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
  check_engines "gemm-parametric" Arch.SM86 kernel ~args
    ~scalars:[ ("M", m); ("N", n); ("K", k) ]

(* ----- the scalar FMA path -----

   The naive GEMM's per-thread [c += a * b] runs on the bytecode
   engine's scalar FMA path. Ragged M/N/K under a larger launch grid
   gives partial tiles and masked lanes. *)

let ragged_m = 37
let ragged_n = 27
let ragged_k = 13

let ragged_kernel () =
  Kernels.Gemm.naive_parametric ~launch_m:48 ~launch_n:32 ~bm:16 ~bn:16 ~tm:4
    ~tn:4 ()

let ragged_scalars = [ ("M", ragged_m); ("N", ragged_n); ("K", ragged_k) ]

let ragged_args ?(short = "") () =
  let m = ragged_m and n = ragged_n and k = ragged_k in
  let len name n = if String.equal name short then n - 3 else n in
  [ ("A", Ref.random_fp16 ~seed:21 (len "A" (m * k)))
  ; ("B", Ref.random_fp16 ~seed:22 (len "B" (k * n)))
  ; ("C", Ref.random_fp16 ~seed:23 (len "C" (m * n)))
  ]

let test_scalar_fma_ragged () =
  check_engines "gemm-parametric ragged" Arch.SM86 (ragged_kernel ())
    ~args:(ragged_args ()) ~scalars:ragged_scalars ~ignore:[]

(* A buffer three elements short faults on its last rows: the scalar
   path must raise the generic path's [Memory.Fault], message and all.
   The generic path is the same engine with instruction tracing on
   (which keeps every lane on [Semantics]), and the tree oracle. *)
let test_scalar_fma_fault () =
  let kernel = ragged_kernel () in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let fault run =
    match run () with
    | _ -> "no fault"
    | exception Gpu_sim.Memory.Fault msg -> msg
  in
  List.iter
    (fun short ->
      let scalar () =
        Interp.run_plan ~domains:1 ~engine:Interp.Bytecode plan
          ~args:(ragged_args ~short ()) ~scalars:ragged_scalars ()
      in
      let traced () =
        let profiler =
          Profiler.create ~trace:(Trace.create ()) ~detail:true ()
        in
        Interp.run_plan ~profiler ~domains:1 ~engine:Interp.Bytecode plan
          ~args:(ragged_args ~short ()) ~scalars:ragged_scalars ()
      in
      let tree () =
        Interp.run_tree ~arch:Arch.SM86 ~domains:1 kernel
          ~args:(ragged_args ~short ()) ~scalars:ragged_scalars ()
      in
      let want = fault tree in
      check_bool (short ^ " short: the oracle faults") true
        (not (String.equal want "no fault"));
      check_str (short ^ " short: generic path") want (fault traced);
      check_str (short ^ " short: scalar path") want (fault scalar))
    [ "A"; "B"; "C" ]

(* The scalar path allocates nothing per lane: the whole run stays under
   16 minor words per multiply-add cell at one domain (the generic
   per-lane semantics allocate about 120). *)
let test_scalar_fma_allocation () =
  let m = 64 and n = 64 and k = 64 in
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:m ~launch_n:n ~bm:16 ~bn:16 ~tm:4
      ~tn:4 ()
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let args =
    [ ("A", Ref.random_fp16 ~seed:31 (m * k))
    ; ("B", Ref.random_fp16 ~seed:32 (k * n))
    ; ("C", Array.make (m * n) 0.0)
    ]
  in
  let scalars = [ ("M", m); ("N", n); ("K", k) ] in
  let w0 = Gc.minor_words () in
  ignore
    (Interp.run_plan ~domains:1 ~engine:Interp.Bytecode plan ~args ~scalars ());
  let per_cell = (Gc.minor_words () -. w0) /. float_of_int (m * n * k) in
  check_bool
    (Printf.sprintf "%.1f minor words per cell <= 16" per_cell)
    true (per_cell <= 16.0)

let test_eng_fmha () =
  check_engines "fmha sm86" Arch.SM86
    (Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
       ~nthreads:64 ());
  check_engines "fmha sm70" Arch.SM70
    (Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
       ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())

let test_eng_reductions () =
  check_engines "layernorm" Arch.SM86
    (Kernels.Layernorm.kernel ~rows:8 ~cols:256 ~nthreads:64 ());
  check_engines "softmax" Arch.SM86
    (Kernels.Softmax.kernel ~rows:8 ~cols:128 ~nthreads:64 ())

let test_eng_fused () =
  check_engines "lstm" Arch.SM86
    (Kernels.Lstm.kernel Arch.SM86
       (Kernels.Gemm.test_config Arch.SM86)
       ~m:64 ~n:64 ~k:64 ());
  check_engines "mlp" Arch.SM86
    (Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
       ~wn:32 ());
  check_engines "gemm+layernorm" Arch.SM86
    (Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
       ~wm:32 ~wn:32 ())

(* ----- the encoding itself ----- *)

(* The executor dispatches on integer literals; renumbering the opcodes
   without updating it would silently execute the wrong semantics. *)
let test_opcode_numbers () =
  check_int "op_exec" 0 Bytecode.op_exec;
  check_int "op_loop" 1 Bytecode.op_loop;
  check_int "op_branch" 2 Bytecode.op_branch;
  check_int "op_branch_div" 3 Bytecode.op_branch_div;
  check_int "op_barrier" 4 Bytecode.op_barrier;
  check_int "op_frame" 5 Bytecode.op_frame;
  check_int "op_fail" 6 Bytecode.op_fail;
  List.iter
    (fun (op, name) -> check_str name name (Bytecode.opcode_name op))
    [ (Bytecode.op_exec, "exec")
    ; (Bytecode.op_loop, "loop")
    ; (Bytecode.op_branch, "branch")
    ; (Bytecode.op_branch_div, "branch.div")
    ; (Bytecode.op_barrier, "barrier")
    ; (Bytecode.op_frame, "frame")
    ; (Bytecode.op_fail, "fail")
    ]

(* The histogram sums to the instruction count, and the atomics pool is
   exactly the EXEC operands: each [a_id] appears in one EXEC, and
   [bc_atomics.(i)] has id [i]. *)
let test_instruction_counts () =
  List.iter
    (fun (name, arch, kernel) ->
      let plan = Pipeline.lower arch kernel in
      let bc = plan.Plan.body in
      check_int
        (name ^ ": histogram sums to instruction count")
        (Bytecode.instruction_count bc)
        (Array.fold_left ( + ) 0 (Bytecode.histogram bc));
      check_int (name ^ ": histogram has 9 buckets") 9
        (Array.length (Bytecode.histogram bc));
      check_bool
        (name ^ ": atomics pool matches EXEC count")
        true
        (Array.length bc.Plan.bc_atomics
        = (Bytecode.histogram bc).(Bytecode.op_exec));
      let seen = Array.make (Array.length bc.Plan.bc_atomics) 0 in
      let code = bc.Plan.bc_code in
      let pc = ref 0 in
      while !pc < Array.length code do
        if code.(!pc) = Bytecode.op_exec then begin
          let id = code.(!pc + 1) in
          seen.(id) <- seen.(id) + 1
        end;
        pc := !pc + Plan.header_words.(code.(!pc))
      done;
      Array.iteri
        (fun i n ->
          check_int (Printf.sprintf "%s: a_id %d in exactly one EXEC" name i) 1 n;
          check_int
            (Printf.sprintf "%s: bc_atomics.(%d) has id %d" name i i)
            i bc.Plan.bc_atomics.(i).Plan.a_id)
        seen)
    [ ( "gemm-tc sm86"
      , Arch.SM86
      , Kernels.Gemm.tensor_core Arch.SM86
          (Kernels.Gemm.test_config Arch.SM86)
          ~epilogue:Kernels.Epilogue.none ~m:128 ~n:128 ~k:32 () )
    ; ( "fmha sm86"
      , Arch.SM86
      , Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16
          ~chunk:16 ~nthreads:64 () )
    ]

(* The builder's word layout, checked against a hand-assembled body: a
   loop around a divergent if/else (nested divergent branch in the else)
   and a frame, then a barrier, async-copy fences and a lazy failure.
   Atomics must arrive in id order. *)
let test_builder_layout () =
  let plan =
    Pipeline.lower Arch.SM86
      (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())
  in
  let a0 = plan.Plan.body.Plan.bc_atomics.(0) in
  let zero (_ : int array) = 0 and yes (_ : int array) = true in
  let b = Bytecode.builder () in
  Bytecode.loop b ~var:"i" ~slot:9 ~lo:zero ~hi:zero ~step:zero (fun () ->
      Bytecode.branch b ~divergent:true yes
        ~then_:(fun () -> Bytecode.exec b a0)
        ~else_:(fun () ->
          Bytecode.branch b ~divergent:true yes
            ~then_:(fun () -> Bytecode.barrier b)
            ~else_:ignore);
      Bytecode.frame b "f" (fun () -> Bytecode.branch b ~divergent:false yes
          ~then_:ignore ~else_:ignore));
  Bytecode.barrier b;
  Bytecode.commit b;
  Bytecode.wait b 1;
  Bytecode.fail b "boom";
  let bc = Bytecode.finish b in
  Alcotest.(check (array int))
    "code words"
    [| 1; 9; 0; 1; 2; 0; 20 (* loop i, len 20 *)
     ; 3; 0; 0; 2; 6 (* branch.div depth 0, then 2, else 6 *)
     ; 0; 0 (* exec #0 *)
     ; 3; 1; 1; 1; 0 (* branch.div depth 1, then 1, else 0 *)
     ; 4 (* barrier *)
     ; 5; 1; 4 (* frame f, len 4 *)
     ; 2; 2; 0; 0 (* branch, then 0, else 0 *)
     ; 4; 7; 8; 1; 6; 0 (* barrier, commit, wait 1, fail 0 *)
    |]
    bc.Plan.bc_code;
  check_int "max divergence depth" 2 bc.Plan.bc_max_depth;
  check_int "one atomic" 1 (Array.length bc.Plan.bc_atomics);
  Alcotest.(check (array string)) "labels" [| "i"; "f" |] bc.Plan.bc_labels;
  Alcotest.(check (array string)) "fails" [| "boom" |] bc.Plan.bc_fails;
  check_int "three conditions" 3 (Array.length bc.Plan.bc_conds);
  check_int "three loop bounds" 3 (Array.length bc.Plan.bc_exprs);
  check_bool "out-of-order atomic rejected" true
    (match Bytecode.exec (Bytecode.builder ()) plan.Plan.body.Plan.bc_atomics.(1) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ----- cost-based chunking ----- *)

let test_cost_chunk_size () =
  let grid =
    [ (0, 1, 0); (1, 1, 1); (64, 1, 1_000); (64, 4, 1_000)
    ; (64, 4, 2_000_000); (1024, 8, 50_000); (1024, 8, 10_000_000)
    ; (7, 31, 123_456); (100_000, 2, 1)
    ]
  in
  List.iter
    (fun (total, domains, block_ns) ->
      let c = Domain_pool.cost_chunk_size ~total ~domains ~block_ns in
      let tag = Printf.sprintf "total=%d domains=%d ns=%d" total domains block_ns in
      check_bool (tag ^ ": >= 1") true (c >= 1);
      check_bool (tag ^ ": <= max 1 total") true (c <= max 1 total);
      (* monotone nonincreasing in block_ns *)
      check_bool (tag ^ ": costlier blocks never widen chunks") true
        (Domain_pool.cost_chunk_size ~total ~domains ~block_ns:(block_ns * 10)
        <= c);
      (* monotone nonincreasing in domains *)
      check_bool (tag ^ ": more domains never widen chunks") true
        (Domain_pool.cost_chunk_size ~total ~domains:(domains + 1) ~block_ns
        <= c))
    grid;
  (* Expensive blocks schedule one at a time; free blocks still balance
     (>= ~4 chunks per domain). *)
  check_int "2ms blocks -> singleton chunks" 1
    (Domain_pool.cost_chunk_size ~total:64 ~domains:2 ~block_ns:2_000_000);
  check_bool "zero-cost blocks still split for balance" true
    (Domain_pool.cost_chunk_size ~total:1024 ~domains:4 ~block_ns:0
    <= 1024 / (4 * 4))

let test_cost_chunks () =
  check_bool "total=0 is empty" true
    (Domain_pool.cost_chunks ~total:0 ~domains:4 ~block_ns:100 = []);
  check_bool "total<0 is empty" true
    (Domain_pool.cost_chunks ~total:(-3) ~domains:4 ~block_ns:100 = []);
  List.iter
    (fun (total, domains, block_ns) ->
      let tag = Printf.sprintf "total=%d domains=%d ns=%d" total domains block_ns in
      let chunks = Domain_pool.cost_chunks ~total ~domains ~block_ns in
      let size = Domain_pool.cost_chunk_size ~total ~domains ~block_ns in
      let last =
        List.fold_left
          (fun prev (lo, hi) ->
            check_int (tag ^ ": contiguous") prev lo;
            check_bool (tag ^ ": non-empty") true (hi > lo);
            check_bool (tag ^ ": chunk-sized") true (hi - lo <= size);
            hi)
          0 chunks
      in
      check_int (tag ^ ": covers total") total last;
      (* every chunk except the last is exactly [size] *)
      let rec full = function
        | [] | [ _ ] -> ()
        | (lo, hi) :: rest ->
          check_int (tag ^ ": full chunk") size (hi - lo);
          full rest
      in
      full chunks)
    [ (1, 1, 0); (7, 2, 1_000); (64, 4, 100_000); (100, 16, 2_000_000)
    ; (1024, 8, 12_345)
    ]

let () =
  Alcotest.run "bytecode"
    [ ( "determinism"
      , [ Alcotest.test_case "gemm-tc sm86+sm70" `Quick test_eng_gemm_tc
        ; Alcotest.test_case "gemm naive" `Quick test_eng_gemm_naive
        ; Alcotest.test_case "gemm parametric" `Quick test_eng_gemm_parametric
        ; Alcotest.test_case "fmha" `Quick test_eng_fmha
        ; Alcotest.test_case "reductions" `Quick test_eng_reductions
        ; Alcotest.test_case "fused" `Quick test_eng_fused
        ] )
    ; ( "scalar fma"
      , [ Alcotest.test_case "ragged gemm bit-identical" `Quick
            test_scalar_fma_ragged
        ; Alcotest.test_case "out-of-bounds fault message" `Quick
            test_scalar_fma_fault
        ; Alcotest.test_case "allocation per cell" `Quick
            test_scalar_fma_allocation
        ] )
    ; ( "encoding"
      , [ Alcotest.test_case "opcode numbers pinned" `Quick test_opcode_numbers
        ; Alcotest.test_case "instruction counts" `Quick test_instruction_counts
        ; Alcotest.test_case "builder layout" `Quick test_builder_layout
        ] )
    ; ( "chunking"
      , [ Alcotest.test_case "cost_chunk_size" `Quick test_cost_chunk_size
        ; Alcotest.test_case "cost_chunks" `Quick test_cost_chunks
        ] )
    ]
