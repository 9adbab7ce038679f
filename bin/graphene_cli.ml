(* Command-line interface to the Graphene reproduction:

     graphene ir <kernel>         print the Graphene IR listing
     graphene codegen <kernel>    print the generated CUDA C++
     graphene lower <kernel>      run the lowering pipeline and print the IR
                                  after every pass plus the execution plan
     graphene simulate <kernel>   execute on the simulated GPU and verify
     graphene profile <kernel>    simulate with per-spec profiling: prints the
                                  report, writes JSON + Chrome-trace files
     graphene tune [KERNEL SIZES] search a GEMM/FMHA decomposition space
     graphene tables              regenerate the paper's tables and figures
     graphene table2              print the atomic-spec registry (Table 2) *)

open Cmdliner

module Arch = Graphene.Arch
module Ref = Reference.Cpu_ref

let arch_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "sm70" | "volta" | "v100" -> Ok Arch.SM70
        | "sm86" | "ampere" | "a6000" -> Ok Arch.SM86
        | _ -> Error (`Msg "expected sm70|sm86")),
      fun fmt a -> Format.pp_print_string fmt (Arch.name a) )

let arch_arg =
  Arg.(value & opt arch_conv Arch.SM86 & info [ "a"; "arch" ] ~doc:"Target architecture (sm70 or sm86).")

let kernel_names =
  [ "gemm-naive"; "gemm-tc"; "gemm-bias-relu"; "mlp"; "lstm"; "layernorm"
  ; "softmax"; "fmha"; "ldmatrix"
  ]

let kernel_arg =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) kernel_names))) None
    & info [] ~docv:"KERNEL"
        ~doc:
          (Printf.sprintf "Kernel to build: %s."
             (String.concat ", " kernel_names)))

(* Build a (kernel, simulator arguments, verifier) triple at a size the
   interpreter can execute. *)
let build arch name =
  let mk_gemm kernel ~m ~n ~k ~bias ~act =
    let a = Ref.random_fp16 ~seed:1 (m * k) in
    let b = Ref.random_fp16 ~seed:2 (k * n) in
    let bias_v = Ref.random_fp16 ~seed:3 n in
    let c = Array.make (m * n) 0.0 in
    let args =
      [ ("A", a); ("B", b); ("C", c) ] @ if bias then [ ("bias", bias_v) ] else []
    in
    let verify () =
      let c_ref = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k a b c_ref;
      if bias then Ref.bias_add ~rows:m ~cols:n c_ref bias_v;
      if act then Ref.relu c_ref;
      Ref.allclose c c_ref
    in
    (kernel, args, verify)
  in
  match name with
  | "gemm-naive" ->
    mk_gemm
      (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())
      ~m:32 ~n:32 ~k:16 ~bias:false ~act:false
  | "gemm-tc" ->
    let cfg = Kernels.Gemm.test_config arch in
    (* k = 4 tiles of bk, so the staging loop is deep enough for the
       swpipe pass to pipeline (--stages). *)
    let m, n, k = (64, 64, 128) in
    let m = if arch = Arch.SM70 then 32 else m in
    let n = if arch = Arch.SM70 then 32 else n in
    mk_gemm
      (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m ~n
         ~k ())
      ~m ~n ~k ~bias:false ~act:false
  | "gemm-bias-relu" ->
    let cfg = Kernels.Gemm.test_config arch in
    let m, n, k =
      if arch = Arch.SM70 then (32, 32, 16) else (64, 64, 32)
    in
    mk_gemm
      (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.bias_relu
         ~m ~n ~k ())
      ~m ~n ~k ~bias:true ~act:true
  | "mlp" ->
    let m = 64 and width = 64 and layers = 3 in
    let wm, wn = if arch = Arch.SM70 then (32, 32) else (32, 32) in
    let kernel = Kernels.Mlp.kernel arch ~m ~width ~layers ~bm:64 ~wm ~wn () in
    let x = Ref.random_fp16 ~seed:1 (m * width) in
    let w =
      Array.map (fun v -> v /. 8.0)
        (Ref.random_fp16 ~seed:2 (layers * width * width))
    in
    let biases = Ref.random_fp16 ~seed:3 (layers * width) in
    let y = Array.make (m * width) 0.0 in
    let verify () =
      let cur = ref (Array.copy x) in
      for l = 0 to layers - 1 do
        let out = Array.make (m * width) 0.0 in
        Ref.gemm ~m ~n:width ~k:width !cur
          (Array.sub w (l * width * width) (width * width))
          out;
        Ref.bias_add ~rows:m ~cols:width out (Array.sub biases (l * width) width);
        Ref.relu out;
        cur := out
      done;
      Ref.allclose ~rtol:5e-2 ~atol:2e-2 y !cur
    in
    (kernel, [ ("X", x); ("W", w); ("biases", biases); ("Y", y) ], verify)
  | "lstm" ->
    let m, n, k = if arch = Arch.SM70 then (32, 32, 32) else (64, 64, 64) in
    let cfg = Kernels.Gemm.test_config arch in
    let kernel = Kernels.Lstm.kernel arch cfg ~m ~n ~k () in
    let x1 = Ref.random_fp16 ~seed:1 (m * k) in
    let w1 = Ref.random_fp16 ~seed:2 (k * n) in
    let x2 = Ref.random_fp16 ~seed:3 (m * k) in
    let w2 = Ref.random_fp16 ~seed:4 (k * n) in
    let bias = Ref.random_fp16 ~seed:5 n in
    let z = Array.make (m * n) 0.0 in
    let verify () =
      let r = Array.make (m * n) 0.0 in
      let r2 = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k x1 w1 r;
      Ref.gemm ~m ~n ~k x2 w2 r2;
      Ref.add_into ~dst:r r2;
      Ref.bias_add ~rows:m ~cols:n r bias;
      Ref.relu r;
      Ref.allclose z r
    in
    ( kernel,
      [ ("X1", x1); ("W1", w1); ("X2", x2); ("W2", w2); ("bias", bias); ("Z", z) ],
      verify )
  | "layernorm" ->
    let rows = 4 and cols = 512 and nthreads = 64 in
    let kernel = Kernels.Layernorm.kernel ~rows ~cols ~nthreads () in
    let x = Ref.random_fp16 ~seed:1 (rows * cols) in
    let gamma = Ref.random_fp16 ~seed:2 cols in
    let beta = Ref.random_fp16 ~seed:3 cols in
    let y = Array.make (rows * cols) 0.0 in
    let verify () =
      let r = Array.copy x in
      Ref.layernorm ~rows ~cols ~gamma ~beta r;
      Ref.allclose ~rtol:3e-2 ~atol:2e-2 y r
    in
    (kernel, [ ("X", x); ("gamma", gamma); ("beta", beta); ("Y", y) ], verify)
  | "softmax" ->
    let rows = 4 and cols = 256 and nthreads = 64 in
    let kernel = Kernels.Softmax.kernel ~rows ~cols ~nthreads () in
    let x = Ref.random_fp16 ~seed:1 (rows * cols) in
    let y = Array.make (rows * cols) 0.0 in
    let verify () =
      let r = Array.copy x in
      Ref.softmax_rows ~rows ~cols r;
      Ref.allclose ~rtol:3e-2 ~atol:5e-3 y r
    in
    (kernel, [ ("X", x); ("Y", y) ], verify)
  | "fmha" ->
    (* Volta's quad-pair mma needs a 32-wide head and chunk, and stages
       K/V unswizzled (as the tests and the bench build it). *)
    let sm70 = arch = Arch.SM70 in
    let batch = 1 and heads = 1 and seq = 32 in
    let dh = if sm70 then 32 else 16 in
    let kernel =
      Kernels.Fmha.kernel ~swizzle_smem:(not sm70) arch ~batch ~heads ~seq ~dh
        ~chunk:dh ~nthreads:64 ()
    in
    let rows = batch * heads * seq in
    let q = Ref.random_fp16 ~seed:1 (rows * dh) in
    let k = Ref.random_fp16 ~seed:2 (rows * dh) in
    let v = Ref.random_fp16 ~seed:3 (rows * dh) in
    let o = Array.make (rows * dh) 0.0 in
    let verify () =
      let r = Array.make (rows * dh) 0.0 in
      Ref.attention ~seq ~dh q k v r;
      Ref.allclose ~rtol:4e-2 ~atol:2e-2 o r
    in
    (kernel, [ ("Q", q); ("K", k); ("V", v); ("O", o) ], verify)
  | "ldmatrix" ->
    let kernel = Kernels.Ldmatrix_demo.kernel () in
    let input = Ref.random_fp16 ~seed:1 256 in
    let out = Array.make (32 * 8) 0.0 in
    let verify () =
      let ok = ref true in
      for lane = 0 to 31 do
        for reg = 0 to 7 do
          if
            out.((lane * 8) + reg)
            <> Kernels.Ldmatrix_demo.expected ~input ~lane ~reg
          then ok := false
        done
      done;
      !ok
    in
    (kernel, [ ("In", input); ("Out", out) ], verify)
  | _ -> assert false

let ir_cmd =
  let run arch name =
    let kernel, _, _ = build arch name in
    print_endline (Graphene.Spec.kernel_to_string kernel)
  in
  Cmd.v (Cmd.info "ir" ~doc:"Print the Graphene IR listing of a kernel.")
    Term.(const run $ arch_arg $ kernel_arg)

let codegen_cmd =
  let run arch name =
    let kernel, _, _ = build arch name in
    (match Graphene.Validate.check arch kernel with
    | [] -> ()
    | problems ->
      prerr_endline (String.concat "\n" problems);
      exit 1);
    print_string (Codegen.Emit.cuda (Lower.Pipeline.lower arch kernel))
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Print the CUDA C++ of a kernel's lowered plan: the plan \
          $(b,simulate) runs (\\$GRAPHENE_SWPIPE_STAGES sets its \
          software-pipelining depth).")
    Term.(const run $ arch_arg $ kernel_arg)

let lower_cmd =
  let plan_only =
    Arg.(
      value & flag
      & info [ "plan-only" ]
          ~doc:"Print only the final execution plan, not the per-pass IR.")
  in
  let no_vectorize =
    Arg.(
      value & flag
      & info [ "no-vectorize" ]
          ~doc:
            "Disable the vectorize pass's widening (every atomic stays \
             scalar); the legality verdicts and bank-conflict lint are \
             still computed and printed.")
  in
  let stages =
    Arg.(
      value & opt int 1
      & info [ "stages" ] ~docv:"N"
          ~doc:
            "Software-pipelining depth for the swpipe pass: at \
             $(docv) >= 2, eligible async staging loops are rewritten \
             to $(docv)-stage rotating-buffer pipelines. Equivalent to \
             setting \\$GRAPHENE_SWPIPE_STAGES.")
  in
  let run arch name plan_only no_vectorize stages =
    let kernel, _, _ = build arch name in
    let log ~pass ~doc rendered =
      if not plan_only then begin
        Format.printf "==== %s: %s ====@.%s@.@." pass doc rendered
      end
    in
    let plan =
      Lower.Pipeline.lower ~log ~vectorize:(not no_vectorize) ~stages arch
        kernel
    in
    if plan_only then print_endline (Lower.Plan.to_string plan);
    let bc = plan.Lower.Plan.body in
    Format.printf
      "lowered %s for %s: %d op(s), %d atomic(s), %d env slot(s), %d \
       alloc(s)@."
      kernel.Graphene.Spec.name (Arch.name arch)
      (Lower.Bytecode.instruction_count bc)
      (Array.length bc.Lower.Plan.bc_atomics)
      plan.Lower.Plan.nslots
      (List.length plan.Lower.Plan.allocs);
    let flagged, cycles = Lower.Plan.bank_warning_counts bc in
    if flagged > 0 then
      Format.printf
        "bank-conflict lint: %d atomic(s) flagged, +%d conflict \
         cycle(s)/batch@."
        flagged cycles;
    (let pl = plan.Lower.Plan.pipelining in
     if pl.Lower.Plan.pl_stages > 1 then
       Format.printf
         "pipelining: %d stage(s), %d B staged/iter, queue depth bound %d \
          [%s]@."
         pl.Lower.Plan.pl_stages pl.Lower.Plan.pl_stage_bytes
         pl.Lower.Plan.pl_queue_bound
         (String.concat ", "
            (List.map
               (fun (b, s) -> Printf.sprintf "%s(+%d)" b s)
               pl.Lower.Plan.pl_buffers))
     else Format.printf "pipelining: %s@." pl.Lower.Plan.pl_note);
    Format.printf "%s@."
      (Lower.Bytecode.summary ~cta_size:plan.Lower.Plan.cta_size bc)
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:
         "Run the seven-pass lowering pipeline (validate, flatten, \
          resolve, depcheck, vectorize, swpipe, compile) on a kernel, \
          printing the IR after every pass, the compiled execution plan — \
          with each view's dependence tier, vector width and bank-conflict \
          lint — the software-pipelining verdict (stages chosen, shared \
          bytes per stage, queue-depth bound, or the per-loop refusal \
          reasons) and the plan's bytecode (instruction histogram, \
          scratch-arena size). See docs/LOWERING.md.")
    Term.(
      const run $ arch_arg $ kernel_arg $ plan_only $ no_vectorize $ stages)

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Execute the simulated grid on $(docv) OCaml domains in parallel \
           (default: \\$GRAPHENE_SIM_DOMAINS, else the machine's recommended \
           domain count). Results are bit-identical at every domain count; \
           see docs/PARALLELISM.md.")

let simulate_cmd =
  let check =
    Arg.(
      value
      & opt (some int) None
      & info [ "check" ] ~docv:"N"
          ~doc:
            "Oracle check: run the kernel through the tree interpreter on 1 \
             domain as the baseline, then the compiled plan on the bytecode \
             engine at 1 and at $(docv) domains, and require bit-identical \
             contract counters, profiler report, Chrome trace and output \
             buffers. Prints every mismatch; exits non-zero on any.")
  in
  let run arch name domains check =
    let kernel, args, verify = build arch name in
    (match check with
    | None -> ()
    | Some nd ->
      let plan, _ = Lower.Pipeline.lower_cached arch kernel in
      let runs =
        Gpu_sim.Oracle.check ~profile:true ~reference:plan.Lower.Plan.kernel
          plan ~args
          [ (Gpu_sim.Interp.Bytecode, 1); (Gpu_sim.Interp.Bytecode, nd) ]
      in
      Format.printf "check: tree (1 domain) baseline@.";
      List.iter
        (fun ((eng, d), _, mismatches) ->
          Format.printf "  %-8s %d domain(s)  %s@."
            (Gpu_sim.Interp.engine_name eng)
            d
            (if mismatches = [] then "bit-identical"
             else
               "MISMATCH: "
               ^ String.concat ", "
                   (List.map Gpu_sim.Oracle.mismatch_to_string mismatches)))
        runs;
      if List.exists (fun (_, _, m) -> m <> []) runs then exit 1);
    let counters =
      Gpu_sim.Interp.run ~arch ?domains kernel ~args ()
    in
    Format.printf "%a@." Gpu_sim.Counters.pp counters;
    if verify () then Format.printf "result: matches CPU reference@."
    else begin
      Format.printf "result: MISMATCH against CPU reference@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a kernel on the simulated GPU and verify the result.")
    Term.(
      const run $ arch_arg $ kernel_arg $ domains_arg $ check)

let write_file path contents =
  try
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  with Sys_error msg ->
    Format.eprintf "error: cannot write output file: %s@." msg;
    exit 1

let profile_cmd =
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Directory for the JSON report and Chrome-trace files.")
  in
  let detail =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:
            "Also record one trace event per executed instruction instance \
             (larger trace files).")
  in
  let run arch name out_dir detail domains =
    let kernel, args, verify = build arch name in
    let trace = Gpu_sim.Trace.create () in
    let profiler = Gpu_sim.Profiler.create ~trace ~detail () in
    let counters =
      Gpu_sim.Interp.run ~arch ~profiler ?domains kernel ~args ()
    in
    let machine = Gpu_sim.Machine.of_arch arch in
    let report =
      Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters ~machine ()
    in
    Format.printf "%a@." Gpu_sim.Profiler.pp_report report;
    let slug = String.map (fun c -> if c = '-' then '_' else c) name in
    let base =
      Printf.sprintf "%s/profile_%s_%s" out_dir slug (Arch.name arch)
    in
    let json_path = base ^ ".json" in
    let trace_path = base ^ ".trace.json" in
    write_file json_path (Gpu_sim.Profiler.report_to_json report);
    write_file trace_path (Gpu_sim.Trace.to_chrome_string trace);
    Format.printf "report: %s@.trace:  %s (%d events; load in \
                   chrome://tracing or ui.perfetto.dev)@."
      json_path trace_path
      (Gpu_sim.Trace.num_events trace);
    if verify () then Format.printf "result: matches CPU reference@."
    else begin
      Format.printf "result: MISMATCH against CPU reference@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Execute a kernel on the simulated GPU with per-spec profiling:   \
          print the attribution report (instruction mix, bytes, coalescing, \
          bank conflicts, roofline placement) and write a JSON report plus \
          a Chrome-trace timeline. See docs/PROFILING.md.")
    Term.(
      const run $ arch_arg $ kernel_arg $ out_dir $ detail $ domains_arg)

(* [tune --profile N]: re-run one proxy-simulated search candidate with
   the profiler attached. Its proxy plan is a plan-cache hit after tier
   2; traffic is data-independent, so zero-filled inputs suffice. *)
let print_proxy_profile machine (s : Tuner.Search.simulated) =
  let module S = Tuner.Search in
  let cand = s.S.sc.S.cand in
  let arch = machine.Gpu_sim.Machine.arch in
  let kernel = cand.S.proxy () in
  let t0 = Unix.gettimeofday () in
  let plan, cache_hit =
    Lower.Pipeline.lower_cached ?vectorize:cand.S.vectorize arch kernel
      ~stages:cand.S.stages
  in
  let lower_s = Unix.gettimeofday () -. t0 in
  let profiler = Gpu_sim.Profiler.create () in
  let counters =
    Gpu_sim.Interp.run_plan ~profiler ~domains:1 plan
      ~args:(S.zero_args kernel) ()
  in
  let rep =
    Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters ~machine ()
  in
  Format.printf
    "  profiled %a (proxy, %s engine): %s-bound, %.0f%% coalesced, %d \
     bank-conflict cycles/block, lowered in %.1fms%s@."
    S.pp_knobs cand.S.knobs
    (Gpu_sim.Interp.engine_name (Gpu_sim.Interp.default_plan_engine ()))
    rep.Gpu_sim.Profiler.bound
    (100.0 *. rep.Gpu_sim.Profiler.totals.Gpu_sim.Profiler.coalescing)
    (rep.Gpu_sim.Profiler.totals.Gpu_sim.Profiler.shared_bank_conflicts
    / max 1 rep.Gpu_sim.Profiler.grid_blocks)
    (1e3 *. lower_s)
    (if cache_hit then " (plan cache hit)" else "")

let tune_cmd =
  let mnk =
    Arg.(
      value
      & pos_right 0 int []
      & info [] ~docv:"SIZES"
          ~doc:
            "Problem sizes: M N K for gemm (defaults 4096 4096 1024), \
             SEQ DH for fmha (defaults 256 64).")
  in
  let kernel_pos =
    Arg.(value & pos 0 string "gemm" & info [] ~docv:"KERNEL")
  in
  let profile_top =
    Arg.(
      value & opt int 0
      & info [ "profile" ] ~docv:"N"
          ~doc:
            "Attach a measured per-spec profile (coalescing, bank \
             conflicts) of the proxy plan to each of the top $(docv) \
             proxy-simulated candidates.")
  in
  let budget =
    Arg.(
      value & opt int 4096
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Maximum candidates the search scores; larger spaces are \
             subsampled by a seeded priority (nested: a bigger budget only \
             ever adds candidates).")
  in
  let proxy_top =
    Arg.(
      value & opt int 8
      & info [ "proxy-top" ] ~docv:"N"
          ~doc:"Front-runners to proxy-simulate in the search's tier 2.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the budget subsample and the verification inputs. The \
             same seed reproduces the identical search (only wall-clock \
             fields vary).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the search trajectory as JSON to $(docv).")
  in
  let run arch kernel sizes profile_top budget proxy_top seed out domains =
    let machine = Gpu_sim.Machine.of_arch arch in
    let space =
      match kernel with
      | "gemm" ->
        let m, n, k =
          match sizes with [ m; n; k ] -> (m, n, k) | _ -> (4096, 4096, 1024)
        in
        Tuner.Search.gemm_space arch ~m ~n ~k ()
      | "fmha" ->
        let seq, dh =
          match sizes with [ s; d ] -> (s, d) | _ -> (256, 64)
        in
        Tuner.Search.fmha_space arch ~seq ~dh ()
      | other ->
        Format.eprintf "error: no search space for kernel %s (try gemm or \
                        fmha)@." other;
        exit 2
    in
    let o =
      Tuner.Search.search ~seed ~max_candidates:budget ~proxy_top ?domains
        machine space ()
    in
    Format.printf "%a@." Tuner.Search.pp_outcome o;
    List.iteri
      (fun i s -> if i < profile_top then print_proxy_profile machine s)
      o.Tuner.Search.o_simulated;
    Option.iter
      (fun f ->
        write_file f (Tuner.Search.to_json o);
        Format.printf "wrote %s@." f)
      out;
    if not o.Tuner.Search.o_verified then begin
      Format.printf "no candidate passed verification@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search a kernel's decomposition space for a problem size: the \
          three-tier schedule-space search over gemm and fmha spaces (model \
          scoring, proxy simulation, exact verification of the winner). \
          See docs/TUNING.md.")
    Term.(
      const run $ arch_arg $ kernel_pos $ mnk $ profile_top $ budget
      $ proxy_top $ seed $ out $ domains_arg)

let serve_cmd =
  let seed =
    Arg.(
      value & opt int Serve.Traffic.default.Serve.Traffic.seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Traffic seed. The same seed reproduces the identical request \
             stream and identical simulated metrics (only wall-clock fields \
             vary between runs).")
  in
  let requests =
    Arg.(
      value & opt int Serve.Traffic.default.Serve.Traffic.requests
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests to serve.")
  in
  let rate =
    Arg.(
      value & opt float Serve.Traffic.default.Serve.Traffic.rate_rps
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Poisson arrival rate in requests per simulated second.")
  in
  let tick =
    Arg.(
      value & opt (some float) None
      & info [ "tick" ] ~docv:"S"
          ~doc:"Scheduling-tick length in simulated seconds.")
  in
  let cell_cap =
    Arg.(
      value & opt (some int) None
      & info [ "cell-cap" ] ~docv:"N"
          ~doc:"Admission budget per tick, in simulated cells.")
  in
  let batch_cap =
    Arg.(
      value & opt (some int) None
      & info [ "batch-cap" ] ~docv:"N" ~doc:"Maximum requests per batch.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Small preset (32 requests) finishing in a couple of seconds.")
  in
  let out =
    Arg.(
      value & opt string "BENCH_serve.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the graphene.serve_bench.v2 JSON report.")
  in
  let run seed requests rate tick cell_cap batch_cap quick out domains =
    let params =
      { Serve.Traffic.default with
        Serve.Traffic.seed
      ; requests = (if quick then min requests 32 else requests)
      ; rate_rps = rate
      }
    in
    let dflt = Serve.Engine.default_config () in
    let config =
      { dflt with
        Serve.Engine.tick_s = Option.value tick ~default:dflt.Serve.Engine.tick_s
      ; max_tick_cells =
          Option.value cell_cap ~default:dflt.Serve.Engine.max_tick_cells
      ; max_batch_requests =
          Option.value batch_cap
            ~default:dflt.Serve.Engine.max_batch_requests
      ; shards = Option.value domains ~default:dflt.Serve.Engine.shards
      }
    in
    let result =
      Serve.Engine.run ~config ~seed ~rate_rps:rate
        (Serve.Traffic.generate params)
    in
    Format.printf "%a" Serve.Metrics.pp_summary result.Serve.Engine.summary;
    write_file out (Serve.Metrics.to_json result.Serve.Engine.summary);
    Format.printf "wrote %s (schema graphene.serve_bench.v2)@." out
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous-batching inference engine on seeded synthetic \
          traffic (Poisson arrivals, BERT/GPT-2 proxy shapes): admission \
          batches shape-compatible requests each scheduling tick, one \
          cached lowering serves every batch of a bucket, and the admitted \
          grids fan out across the domain pool. Prints the latency/\
          throughput/occupancy summary and writes BENCH_serve.json. See \
          docs/SERVING.md.")
    Term.(
      const run $ seed $ requests $ rate $ tick $ cell_cap $ batch_cap
      $ quick $ out $ domains_arg)

let layout_cmd =
  (* A self-checking walkthrough of the CuTe layout algebra
     (docs/LAYOUT.md): each line prints an operation and its canonical
     (shape):(stride) result, and the run exits nonzero if any result
     drifts from the conformance corpus value. *)
  let run () =
    let module L = Shape.Layout in
    let module T = Shape.Int_tuple in
    let module Sw = Shape.Swizzle in
    let failures = ref 0 in
    let row name exp got =
      let ok = String.equal exp got in
      if not ok then incr failures;
      Printf.printf "%-44s %-28s %s\n" name got
        (if ok then "ok" else "MISMATCH (want " ^ exp ^ ")")
    in
    let a = L.of_pairs [ (4, 2); (2, 1); (3, 8) ] in
    row "A = ((4,2,3):(2,1,8))" "((4,2,3):(2,1,8))" (L.to_string a);
    row "coalesce ((2,4):(1,2))" "(8:1)"
      (L.to_string (L.coalesce (L.of_pairs [ (2, 1); (4, 2) ])));
    row "composition (20:2) ((5,4):(4,1))" "((5,4):(8,2))"
      (L.to_string
         (L.composition (L.vector 20 ~stride:2) (L.of_pairs [ (5, 4); (4, 1) ])));
    row "complement (4:2) 24" "((2,3):(1,8))"
      (L.to_string (L.complement (L.vector 4 ~stride:2) 24));
    row "logical_divide A (4:2)" "(((2,2),(2,3)):((4,1),(2,8)))"
      (L.to_string (L.logical_divide a (L.vector 4 ~stride:2)));
    let mk =
      L.make
        (T.node [ T.of_int 9; T.node [ T.of_int 4; T.of_int 8 ] ])
        (T.node [ T.of_int 59; T.node [ T.of_int 13; T.of_int 1 ] ])
    in
    let tiler =
      [ Some (L.vector 3 ~stride:3); Some (L.of_pairs [ (2, 1); (4, 8) ]) ]
    in
    row "zipped_divide (9,(4,8)) by-mode"
      "(((3,(2,4)),(3,(2,2))):((177,(13,2)),(59,(26,1))))"
      (L.to_string (L.zipped_divide mk tiler));
    row "tiled_divide (9,(4,8)) by-mode"
      "(((3,(2,4)),3,(2,2)):((177,(13,2)),59,(26,1)))"
      (L.to_string (L.tiled_divide mk tiler));
    row "logical_product ((2,2):(4,1)) (6:1)"
      "(((2,2),(2,3)):((4,1),(2,8)))"
      (L.to_string
         (L.logical_product (L.of_pairs [ (2, 4); (2, 1) ]) (L.vector 6 ~stride:1)));
    row "right_inverse ((2,2):(2,1))" "((2,2):(2,1))"
      (L.to_string (L.right_inverse (L.of_pairs [ (2, 2); (2, 1) ])));
    row "left_inverse (4:2)" "((2,4):(4,1))"
      (L.to_string (L.left_inverse (L.vector 4 ~stride:2)));
    let c =
      L.compose_swizzle (Sw.make ~bits:1 ~base:0 ~shift:2)
        (L.of_pairs [ (6, 8); (2, 2) ])
    in
    row "swizzle o ((6,2):(8,2))" "Swizzle<1,0,2> o ((6,2):(8,2))"
      (L.composed_to_string c);
    row "  image" "0 8 16 24 32 40"
      (String.concat " "
         (List.map string_of_int
            (Array.to_list (L.composed_indices c) |> List.filteri (fun i _ -> i < 6))));
    row "  low window" "1" (string_of_int (L.composed_low_window c));
    if !failures > 0 then (
      Printf.eprintf "%d layout algebra mismatches\n" !failures;
      exit 1)
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:
         "Walk through the CuTe layout algebra (coalesce, composition, \
          complement, divisions, products, inverses, swizzle composition) \
          and self-check each result against the conformance corpus.")
    Term.(const run $ const ())

let tables_cmd =
  let run () = Experiments.Figures.print_all Format.std_formatter in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate every table and figure of the paper's evaluation.")
    Term.(const run $ const ())

let table2_cmd =
  let run () = Experiments.Figures.print_table2 Format.std_formatter in
  Cmd.v (Cmd.info "table2" ~doc:"Print the atomic-spec registry (Table 2).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "graphene" ~version:"1.0.0"
      ~doc:
        "Graphene: an IR for optimized tensor computations on GPUs (OCaml \
         reproduction of the ASPLOS 2023 paper)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
       [ ir_cmd; codegen_cmd; lower_cmd; simulate_cmd; profile_cmd
       ; serve_cmd; layout_cmd; tables_cmd; table2_cmd; tune_cmd
       ]))
