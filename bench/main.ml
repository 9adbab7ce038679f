(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed below, with the paper's reported values alongside)
   and micro-benchmarks the cost of each regeneration with Bechamel — one
   Test.make per table/figure. *)

open Bechamel
open Toolkit

let figure_tests =
  [ Test.make ~name:"table2_atomic_specs"
      (Staged.stage (fun () -> List.length Graphene.Atomic.registry))
  ; Test.make ~name:"fig1_ldmatrix"
      (Staged.stage (fun () ->
           Codegen.Emit.cuda
             (Lower.Pipeline.lower Graphene.Arch.SM86
                (Kernels.Ldmatrix_demo.kernel ()))))
  ; Test.make ~name:"fig8_codegen"
      (Staged.stage (fun () ->
           Codegen.Emit.cuda
             (Lower.Pipeline.lower Graphene.Arch.SM86
                (Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128
                   ~tm:8 ~tn:8 ()))))
  ; Test.make ~name:"fig9_gemm"
      (Staged.stage (fun () -> Experiments.Figures.fig9 ()))
  ; Test.make ~name:"fig10_epilogues"
      (Staged.stage (fun () -> Experiments.Figures.fig10 ()))
  ; Test.make ~name:"fig11_mlp"
      (Staged.stage (fun () -> Experiments.Figures.fig11 ~m:1024 ~width:128 ()))
  ; Test.make ~name:"fig12_lstm"
      (Staged.stage (fun () -> Experiments.Figures.fig12 ()))
  ; Test.make ~name:"fig13_layernorm"
      (Staged.stage (fun () ->
           Experiments.Figures.fig13 ~rows:1024 ~hiddens:[ 1024 ] ()))
  ; Test.make ~name:"fig14_fmha"
      (Staged.stage (fun () -> Experiments.Figures.fig14 ()))
  ; Test.make ~name:"fig15_transformers"
      (Staged.stage (fun () -> Experiments.Figures.fig15 ()))
  ; Test.make ~name:"ablations_simulated"
      (Staged.stage (fun () -> Experiments.Figures.ablations ()))
  ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let test = Test.make_grouped ~name:"figures" ~fmt:"%s %s" figure_tests in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "== Bechamel: time to regenerate each table/figure ==@.";
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> e
          | Some _ | None -> Float.nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      Format.printf "%-40s %14.1f ns/run@." name est)
    rows;
  Format.printf "@.";
  rows

(* Simulated per-spec profiles of the tensor-core GEMM on both
   architectures (zero-filled inputs: traffic is data-independent). *)
let profile_reports () =
  List.map
    (fun arch ->
      let cfg = Kernels.Gemm.test_config arch in
      let m, n = if arch = Graphene.Arch.SM70 then (32, 32) else (64, 64) in
      let k = 32 in
      let kernel =
        Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m
          ~n ~k ()
      in
      let args =
        List.map
          (fun (p : Gpu_tensor.Tensor.t) ->
            ( p.Gpu_tensor.Tensor.name
            , Array.make (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) 0.0
            ))
          kernel.Graphene.Spec.params
      in
      let profiler = Gpu_sim.Profiler.create () in
      let counters = Gpu_sim.Interp.run ~arch ~profiler kernel ~args () in
      Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters
        ~machine:(Gpu_sim.Machine.of_arch arch) ())
    [ Graphene.Arch.SM70; Graphene.Arch.SM86 ]

(* Machine-readable companion to the printed tables: per-spec profiles of
   the GEMM kernels plus the bechamel timing rows. *)
let emit_bench_profile rows =
  let reports = profile_reports () in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"schema\":\"graphene.bench.v1\",\n\"profiles\":[\n";
  List.iteri
    (fun i rep ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Gpu_sim.Profiler.report_to_json rep))
    reports;
  Buffer.add_string buf "\n],\n\"timings_ns_per_run\":{";
  List.iteri
    (fun i (name, est) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n%s:%s"
           (Gpu_sim.Trace.json_string name)
           (if Float.is_nan est then "null" else Printf.sprintf "%.6g" est)))
    rows;
  Buffer.add_string buf "\n}}\n";
  let oc = open_out "BENCH_profile.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote BENCH_profile.json (%d kernel profiles, %d timings)@."
    (List.length reports) (List.length rows)

(* ----- lower-once / execute-many simulation benchmark -----

   Times the tree-walking reference interpreter against the compiled
   execution plan on fixed kernel shapes, verifies every plan run
   reproduces the tree's event counters and output buffers bitwise, and
   writes BENCH_sim.json. *)

module C = Gpu_sim.Counters

(* Wall clock, not [Sys.time]: CPU time sums over domains, so it cannot
   see the speedup of a parallel grid run. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One simulated cell = one fused multiply-add of the workload's
   definition (m*n*k for GEMM; the paper's FMHA flop count / 2).
   [quick] shrinks the shapes to a few-second smoke (the `perf-smoke`
   alias): the same kernels and the same bit-identity checks, just on
   one-to-few block grids. *)
let sim_cases ?(quick = false) () =
  let gemm arch ~m ~n ~k =
    ( Printf.sprintf "gemm_tc_%dx%dx%d" m n k
    , arch
    , Kernels.Gemm.tensor_core arch
        (Kernels.Gemm.test_config arch)
        ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()
    , m * n * k )
  in
  let fmha arch ~seq ~dh ~chunk ~swizzle_smem =
    let batch = 1 and heads = 1 in
    ( Printf.sprintf "fmha_b%dh%ds%dd%d" batch heads seq dh
    , arch
    , Kernels.Fmha.kernel ~swizzle_smem arch ~batch ~heads ~seq ~dh ~chunk
        ~nthreads:64 ()
    , Kernels.Fmha.flop_count ~batch ~heads ~seq ~dh / 2 )
  in
  if quick then
    [ (fun () -> gemm Graphene.Arch.SM86 ~m:64 ~n:64 ~k:64)
    ; (fun () -> gemm Graphene.Arch.SM70 ~m:64 ~n:64 ~k:64)
    ; (fun () ->
        fmha Graphene.Arch.SM70 ~seq:32 ~dh:32 ~chunk:32 ~swizzle_smem:false)
    ]
  else
    [ (* the acceptance row: compiled plans must be >= 2x the tree path *)
      (fun () -> gemm Graphene.Arch.SM86 ~m:256 ~n:256 ~k:256)
    ; (fun () -> gemm Graphene.Arch.SM70 ~m:128 ~n:128 ~k:128)
    ; (fun () ->
        fmha Graphene.Arch.SM86 ~seq:64 ~dh:32 ~chunk:16 ~swizzle_smem:true)
    ; (fun () ->
        (* Volta: per-lane fragment staging, quad-pair mma, no swizzle. *)
        fmha Graphene.Arch.SM70 ~seq:32 ~dh:32 ~chunk:32 ~swizzle_smem:false)
    ]

(* The multi-domain sweep: the bytecode engine at each of these domain
   counts, against the 1-domain bytecode best-of-2. On hosts with fewer
   cores the domains timeslice, so the sweep reflects what the machine
   can actually do — the numbers are measured, never extrapolated. *)
let sweep_domains = [ 1; 2; 4; 8 ]

(* Everything one bench row measures: the tree reference interpreter and
   the bytecode engine on the same kernel (the plan lowered once), the
   bytecode engine at each of [sweep_domains], and a 3-stage pipelined
   lowering. *)
type sim_row =
  { tree_s : float
  ; tree_mw : float
  ; lower_s : float
  ; cache_hit : bool
  ; lower_cached_s : float
  ; bytecode_s : float
  ; bytecode_mw : float
  ; sweep : (int * float * bool) list  (** domains, wall s, bit-identical *)
  ; stages : int
        (** effective software-pipeline depth of a 3-stage lowering
            request (1 when the swpipe pass refused this kernel) *)
  ; async_occ : float
        (** measured async-copy queue occupancy of the pipelined run *)
  ; overlap_speedup : float
        (** perf-model serialized time / pipelined time at the measured
            occupancy — the latency-hiding term's predicted win *)
  ; identical : bool
  ; outputs_identical : bool
  ; bc_counters : C.t
  }

(* Returns the row's JSON and whether every bit-identity check held
   (rows that fail to build or run count as not identical, so the
   `--quick` smoke exits nonzero on them too). Every plan run — the
   1-domain bytecode run, each sweep point and the pipelined run — is
   held to the tree reference's counters and output buffers. *)
let sim_bench_row case =
  match case () with
  | exception exn ->
    ( Printf.sprintf "{\"name\":\"?\",\"error\":%s}"
        (Gpu_sim.Trace.json_string (Printexc.to_string exn))
    , false )
  | name, arch, kernel, cells -> (
    let args () =
      List.map
        (fun (p : Gpu_tensor.Tensor.t) ->
          ( p.Gpu_tensor.Tensor.name
          , Array.make (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) 0.0 ))
        kernel.Graphene.Spec.params
    in
    match
      (* Minor-heap allocation of each path, from the caller domain's
         allocation counter ([~domains:1] runs inline, so every word the
         executor allocates is counted here). *)
      let tree_args = args () in
      let mw0 = Gc.minor_words () in
      let tree_counters, tree_s =
        time (fun () ->
            Gpu_sim.Interp.run_tree ~arch ~domains:1 kernel ~args:tree_args ())
      in
      let tree_minor_words = Gc.minor_words () -. mw0 in
      (* A timed plan run matches the reference when the oracle finds no
         contract counter and no output buffer that differs from the
         tree's ([Gpu_sim.Oracle.diff]; the request counters are exempt —
         the vectorized plan issues fewer, wider requests by design, and
         test/test_vectorize.ml pins them against a scalar-forced
         lowering instead). *)
      let observed counters buffers =
        { Gpu_sim.Oracle.counters; buffers; report = None; trace = None }
      in
      let tree_run = observed tree_counters tree_args in
      let mismatches c a = Gpu_sim.Oracle.diff tree_run (observed c a) in
      let matches_tree c a = mismatches c a = [] in
      let plan, lower_s =
        time (fun () -> Lower.Pipeline.lower arch kernel)
      in
      (* The same lowering served from the plan cache (first call warms
         it; the timed call must hit). *)
      ignore (Lower.Pipeline.lower_cached arch kernel);
      let (_, cache_hit), lower_cached_s =
        time (fun () -> Lower.Pipeline.lower_cached arch kernel)
      in
      (* Execute the plan twice on one domain (the lower-once /
         execute-many shape); report the best run. *)
      let bc_args = args () in
      let mw1 = Gc.minor_words () in
      let bc_counters, bc_s1 =
        time (fun () ->
            Gpu_sim.Interp.run_plan ~domains:1 ~engine:Gpu_sim.Interp.Bytecode
              plan ~args:bc_args ())
      in
      let bytecode_mw = Gc.minor_words () -. mw1 in
      let _, bc_s2 =
        time (fun () ->
            Gpu_sim.Interp.run_plan ~domains:1 ~engine:Gpu_sim.Interp.Bytecode
              plan ~args:(args ()) ())
      in
      let bytecode_s = Float.min bc_s1 bc_s2 in
      let sweep =
        List.map
          (fun d ->
            let a = args () in
            let c, s =
              time (fun () ->
                  Gpu_sim.Interp.run_plan ~domains:d
                    ~engine:Gpu_sim.Interp.Bytecode plan ~args:a ())
            in
            (d, s, matches_tree c a))
          sweep_domains
      in
      (* The swpipe measurement point: the same kernel lowered at a
         3-stage request (the pass may refuse — [stages] reports the
         effective depth), run once on the bytecode engine against
         fresh buffers. The pre-existing counters and the outputs must
         stay bit-identical to the reference; only the async-queue
         counters (exempt from the oracle's contract) may move. The model's
         overlap speedup compares serialized (1-stage) to pipelined time
         at the measured occupancy. *)
      let pplan, _ = Lower.Pipeline.lower_cached arch kernel ~stages:3 in
      let stages = pplan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
      let p_args = args () in
      let p_counters, _ =
        time (fun () ->
            Gpu_sim.Interp.run_plan ~domains:1 ~engine:Gpu_sim.Interp.Bytecode
              pplan ~args:p_args ())
      in
      let async_occ = C.async_occupancy p_counters ~stages in
      let overlap_speedup =
        let machine = Gpu_sim.Machine.of_arch arch in
        let t pipeline =
          (Gpu_sim.Perf_model.of_kernel ~pipeline machine kernel ())
            .Gpu_sim.Perf_model.time_s
        in
        t { Gpu_sim.Perf_model.stages = 1; occupancy = 0.0 }
        /. t { Gpu_sim.Perf_model.stages; occupancy = async_occ }
      in
      let found =
        mismatches bc_counters bc_args @ mismatches p_counters p_args
      in
      let none_of kind = not (List.exists kind found) in
      let identical =
        none_of (function Gpu_sim.Oracle.Counter _ -> true | _ -> false)
        && List.for_all (fun (_, _, ok) -> ok) sweep
      in
      let outputs_identical =
        none_of (function Gpu_sim.Oracle.Buffer _ -> true | _ -> false)
      in
      { tree_s
      ; tree_mw = tree_minor_words
      ; lower_s
      ; cache_hit
      ; lower_cached_s
      ; bytecode_s
      ; bytecode_mw
      ; sweep
      ; stages
      ; async_occ
      ; overlap_speedup
      ; identical
      ; outputs_identical
      ; bc_counters
      }
    with
    | exception exn ->
      ( Printf.sprintf "{\"name\":%s,\"arch\":%s,\"error\":%s}"
          (Gpu_sim.Trace.json_string name)
          (Gpu_sim.Trace.json_string (Graphene.Arch.name arch))
          (Gpu_sim.Trace.json_string (Printexc.to_string exn))
      , false )
    | r ->
      let cps s = if s > 0.0 then float_of_int cells /. s else Float.nan in
      let per_cell w = w /. float_of_int (max 1 cells) in
      let bc_counters = r.bc_counters in
      let mw_reduction =
        if r.bytecode_mw > 0.0 then r.tree_mw /. r.bytecode_mw else Float.nan
      in
      (* Fraction of the global byte traffic carried by vector-widened
         (v2/v4) requests — the vectorize pass's yield on this kernel. *)
      let global_bytes =
        bc_counters.C.global_load_bytes + bc_counters.C.global_store_bytes
      in
      let vector_widened_frac =
        if global_bytes = 0 then 0.0
        else
          float_of_int bc_counters.C.global_vec_bytes
          /. float_of_int global_bytes
      in
      let ok = r.identical && r.outputs_identical in
      Format.printf
        "%-24s %-4s tree %7.3fs  lower %6.4fs (cached %6.4fs)  bytecode \
         %7.3fs  speedup %5.2fx  minor w/cell %5.1f -> %4.2f  vec %3.0f%%  \
         vs tree %s@."
        name (Graphene.Arch.name arch) r.tree_s r.lower_s r.lower_cached_s
        r.bytecode_s
        (r.tree_s /. r.bytecode_s)
        (per_cell r.tree_mw) (per_cell r.bytecode_mw)
        (100.0 *. vector_widened_frac)
        (if ok then "bit-identical" else "MISMATCH");
      Format.printf "%26sdomains sweep (bytecode):%s@." ""
        (String.concat ""
           (List.map
              (fun (d, s, _) ->
                Printf.sprintf "  %dd %.3fs (%.2fx)" d s (r.bytecode_s /. s))
              r.sweep));
      Format.printf
        "%26sswpipe: %d stage%s, queue occupancy %.2f, model overlap %.2fx@."
        "" r.stages
        (if r.stages = 1 then "" else "s")
        r.async_occ r.overlap_speedup;
      let sweep_json =
        String.concat ","
          (List.map
             (fun (d, s, sok) ->
               Printf.sprintf
                 "{\"domains\":%d,\"par_s\":%.6f,\"domains_speedup\":%.3f,\
                  \"bit_identical\":%b}"
                 d s (r.bytecode_s /. s) sok)
             r.sweep)
      in
      ( Printf.sprintf
          "{\"name\":%s,\"arch\":%s,\"cells\":%d,\"tree_s\":%.6f,\
           \"lower_s\":%.6f,\"lower_cached_s\":%.6f,\"lower_cache_hit\":%b,\
           \"bytecode_s\":%.6f,\"speedup_bytecode\":%.3f,\
           \"exec_engine\":\"bytecode\",\"domains_sweep\":[%s],\
           \"stages\":%d,\"async_copy_occupancy\":%.6g,\
           \"overlap_speedup_model\":%.6g,\
           \"cells_per_sec_tree\":%.6g,\"cells_per_sec_bytecode\":%.6g,\
           \"minor_words_tree\":%.0f,\"minor_words_bytecode\":%.0f,\
           \"minor_words_per_cell_tree\":%.6g,\
           \"minor_words_per_cell_bytecode\":%.6g,\
           \"minor_words_reduction\":%.6g,\
           \"global_transactions\":%d,\"global_requests\":%d,\
           \"global_vec_requests\":%d,\"global_vec_bytes\":%d,\
           \"shared_requests\":%d,\"shared_vec_requests\":%d,\
           \"shared_vec_bytes\":%d,\"shared_bank_conflicts\":%d,\
           \"vector_widened_frac\":%.6g,\
           \"counters_bit_identical\":%b,\"outputs_bit_identical\":%b}"
          (Gpu_sim.Trace.json_string name)
          (Gpu_sim.Trace.json_string (Graphene.Arch.name arch))
          cells r.tree_s r.lower_s r.lower_cached_s r.cache_hit r.bytecode_s
          (r.tree_s /. r.bytecode_s)
          sweep_json r.stages r.async_occ r.overlap_speedup
          (cps r.tree_s) (cps r.bytecode_s) r.tree_mw r.bytecode_mw
          (per_cell r.tree_mw) (per_cell r.bytecode_mw) mw_reduction
          bc_counters.C.global_transactions bc_counters.C.global_requests
          bc_counters.C.global_vec_requests bc_counters.C.global_vec_bytes
          bc_counters.C.shared_requests bc_counters.C.shared_vec_requests
          bc_counters.C.shared_vec_bytes
          bc_counters.C.shared_bank_conflicts vector_widened_frac r.identical
          r.outputs_identical
      , ok ))

let emit_sim_bench ?(quick = false) () =
  Format.printf
    "== Simulation: tree-walking interpreter vs compiled execution plan%s ==@."
    (if quick then " (quick smoke)" else "");
  let results = List.map sim_bench_row (sim_cases ~quick ()) in
  let rows = List.map fst results in
  let all_ok = List.for_all snd results in
  if quick then begin
    (* The perf smoke: no BENCH_sim.json (quick shapes would clobber the
       real numbers) — just the bit-identity verdict as the exit code. *)
    if all_ok then Format.printf "perf smoke OK (%d rows)@.@." (List.length rows)
    else begin
      Format.printf "perf smoke FAILED: tree/plan mismatch@.";
      exit 1
    end
  end
  else begin
    let stats = Lower.Pipeline.cache_stats () in
    let oc = open_out "BENCH_sim.json" in
    output_string oc "{\"schema\":\"graphene.sim_bench.v7\",\n";
    output_string oc
      (Printf.sprintf "\"default_domains\":%d,\"exec_engine\":%s,\n"
         (Gpu_sim.Domain_pool.default_domains ())
         (Gpu_sim.Trace.json_string
            (Gpu_sim.Interp.engine_name (Gpu_sim.Interp.default_plan_engine ()))));
    output_string oc "\"rows\":[\n";
    output_string oc (String.concat ",\n" rows);
    output_string oc "\n],\n";
    output_string oc
      (Printf.sprintf "\"plan_cache\":{\"hits\":%d,\"misses\":%d}}\n"
         stats.Lower.Pipeline.hits stats.Lower.Pipeline.misses);
    close_out oc;
    Format.printf "wrote BENCH_sim.json (%d rows)@.@." (List.length rows)
  end

(* ----- continuous-batching serving benchmark -----

   Seeded Poisson traffic through the Serve engine (docs/SERVING.md).
   Every simulated metric is deterministic per seed; [quick] runs a small
   trace twice and fails on any difference in the deterministic JSON
   (the `serve-smoke` alias), the full mode writes BENCH_serve.json. *)
let emit_serve_bench ?(quick = false) () =
  Format.printf "== Serving: continuous batching on the plan cache%s ==@."
    (if quick then " (quick smoke)" else "");
  let params =
    if quick then { Serve.Traffic.default with Serve.Traffic.requests = 24 }
    else Serve.Traffic.default
  in
  let run () =
    Serve.Engine.run ~seed:params.Serve.Traffic.seed
      ~rate_rps:params.Serve.Traffic.rate_rps
      (Serve.Traffic.generate params)
  in
  let result = run () in
  Format.printf "%a" Serve.Metrics.pp_summary result.Serve.Engine.summary;
  if quick then begin
    (* Same seed, fresh engine: every simulated metric — including the
       digest over all output buffers and counters — must reproduce. *)
    let again = run () in
    let det r =
      Serve.Metrics.to_json ~wall:false r.Serve.Engine.summary
    in
    if String.equal (det result) (det again) then
      Format.printf "serve smoke OK (deterministic across runs)@.@."
    else begin
      Format.printf "serve smoke FAILED: same seed, different metrics@.";
      exit 1
    end
  end
  else begin
    let oc = open_out "BENCH_serve.json" in
    output_string oc (Serve.Metrics.to_json result.Serve.Engine.summary);
    close_out oc;
    Format.printf "wrote BENCH_serve.json (%d requests, %d buckets)@.@."
      result.Serve.Engine.summary.Serve.Metrics.requests
      (List.length result.Serve.Engine.summary.Serve.Metrics.buckets)
  end

(* ----- schedule-space search benchmark -----

   The three-tier superoptimizer (docs/TUNING.md) over the GEMM and FMHA
   decomposition spaces. Everything but wall-clock is deterministic per
   seed; [quick] runs tiny problems twice and fails on any difference in
   the deterministic JSON, or if a winner goes unverified or loses to
   the old fixed sweep (the `search-smoke` alias). The full mode records
   each search trajectory — tier-1 frontier statistics, proxy feedback,
   winner vs fixed-sweep baseline, per-tier wall — in BENCH_tune.json. *)
let emit_tune_bench ?(quick = false) () =
  Format.printf "== Schedule-space search: three-tier superoptimizer%s ==@."
    (if quick then " (quick smoke)" else "");
  let machine = Gpu_sim.Machine.a6000 in
  let arch = machine.Gpu_sim.Machine.arch in
  let spaces =
    if quick then
      [ (Tuner.Search.gemm_space arch ~m:128 ~n:128 ~k:128 (), 256, 4)
      ; (Tuner.Search.fmha_space arch ~seq:64 ~dh:32 (), 256, 3)
      ]
    else
      [ (Tuner.Search.gemm_space arch ~m:4096 ~n:4096 ~k:1024 (), 4096, 8)
      ; (Tuner.Search.fmha_space arch ~seq:256 ~dh:64 (), 4096, 8)
      ]
  in
  let run (space, budget, proxy_top) =
    Tuner.Search.search ~seed:42 ~max_candidates:budget ~proxy_top machine
      space ()
  in
  let outcomes = List.map run spaces in
  List.iter
    (fun o -> Format.printf "%a@.@." Tuner.Search.pp_outcome o)
    outcomes;
  List.iter
    (fun o ->
      if not o.Tuner.Search.o_verified then begin
        Format.printf "tune bench FAILED: %s winner not verified@."
          o.Tuner.Search.o_space;
        exit 1
      end;
      if not (Tuner.Search.winner_beats_baseline o) then begin
        Format.printf
          "tune bench FAILED: %s winner loses to the fixed-sweep baseline@."
          o.Tuner.Search.o_space;
        exit 1
      end)
    outcomes;
  if quick then begin
    (* Same seed, fresh search: the whole trajectory — frontier counts,
       refusal histograms, ranking, refined estimates, winner — must
       reproduce byte-identically. *)
    let again = List.map run spaces in
    let det o = Tuner.Search.to_json ~wall:false o in
    if List.for_all2 (fun a b -> String.equal (det a) (det b)) outcomes again
    then Format.printf "search smoke OK (deterministic across runs)@.@."
    else begin
      Format.printf "search smoke FAILED: same seed, different trajectory@.";
      exit 1
    end
  end
  else begin
    let oc = open_out "BENCH_tune.json" in
    output_string oc "{\"schema\":\"graphene.tune_bench.v1\",\n\"searches\":[\n";
    output_string oc
      (String.concat ",\n" (List.map Tuner.Search.to_json outcomes));
    output_string oc "]}\n";
    close_out oc;
    Format.printf "wrote BENCH_tune.json (%d searches)@.@."
      (List.length outcomes)
  end

let () =
  if Array.mem "--serve-only" Sys.argv then
    emit_serve_bench ~quick:(Array.mem "--quick" Sys.argv) ()
  else if Array.mem "--tune-only" Sys.argv then
    emit_tune_bench ~quick:(Array.mem "--quick" Sys.argv) ()
  else if Array.mem "--sim-only" Sys.argv then
    emit_sim_bench ~quick:(Array.mem "--quick" Sys.argv) ()
  else begin
    Format.printf
      "Graphene reproduction benchmark harness — regenerating the paper's \
       evaluation@.(ASPLOS 2023: Graphene: An IR for Optimized Tensor \
       Computations on GPUs)@.@.";
    Experiments.Figures.print_all Format.std_formatter;
    let rows =
      try run_bechamel ()
      with exn ->
        Format.printf "bechamel micro-benchmark skipped: %s@."
          (Printexc.to_string exn);
        []
    in
    (try emit_bench_profile rows
     with exn ->
       Format.printf "BENCH_profile.json skipped: %s@."
         (Printexc.to_string exn));
    (try emit_sim_bench ()
     with exn ->
       Format.printf "BENCH_sim.json skipped: %s@." (Printexc.to_string exn));
    (try emit_serve_bench ()
     with exn ->
       Format.printf "BENCH_serve.json skipped: %s@." (Printexc.to_string exn));
    try emit_tune_bench ()
    with exn ->
      Format.printf "BENCH_tune.json skipped: %s@." (Printexc.to_string exn)
  end
