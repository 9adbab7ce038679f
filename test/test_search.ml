(* Tests for the three-tier schedule-space search (docs/TUNING.md):
   determinism across domain counts, budget monotonicity, the exact
   equivalence oracle, the FMHA space, and the GEMM tuning contracts —
   valid tile configurations, a sorted tier-1 ranking, a tier-1 head no
   slower than the library default, a correct winner. *)

module Arch = Graphene.Arch
module PM = Gpu_sim.Perf_model
module S = Tuner.Search

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let machine = Gpu_sim.Machine.a6000

let gemm_space () = S.gemm_space Arch.SM86 ~m:128 ~n:128 ~k:128 ()
let fmha_space () = S.fmha_space Arch.SM86 ~seq:64 ~dh:32 ()

let run ?(seed = 42) ?(budget = 192) ?(proxy_top = 3) ?domains space =
  S.search ~seed ~max_candidates:budget ~proxy_top ?domains machine space ()

(* ----- determinism ----- *)

(* The whole trajectory — frontier statistics, refusal histograms,
   ranking order, refined estimates, winner — must be byte-identical at
   every domain count: tier fan-out uses the pool's ascending-regroup
   discipline and every sort breaks ties on candidate id. *)
let test_deterministic_across_domains () =
  let json d = S.to_json ~wall:false (run ~domains:d (gemm_space ())) in
  let one = json 1 in
  List.iter
    (fun d -> check_string (Printf.sprintf "domains=%d" d) one (json d))
    [ 4; 7 ]

let test_deterministic_across_runs () =
  let json () = S.to_json ~wall:false (run (gemm_space ())) in
  check_string "same seed, same trajectory" (json ()) (json ())

(* ----- the winner ----- *)

let test_winner_verified_and_beats_baseline () =
  let o = run (gemm_space ()) in
  check_bool "verified" true o.S.o_verified;
  (match o.S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    (* The refined ranking is sorted; the winner is its oracle-accepted
       head, so nothing the oracle accepted can beat it. *)
    List.iter
      (fun (s : S.simulated) ->
        if s.S.sc.S.cand.S.id <> w.S.sc.S.cand.S.id then
          check_bool "winner is refined head" true
            (w.S.refined.PM.time_s <= s.S.refined.PM.time_s +. 1e-15))
      o.S.o_simulated);
  check_bool "baseline simulated" true (o.S.o_baseline <> None);
  check_bool "winner beats the fixed sweep" true (S.winner_beats_baseline o)

(* ----- budget monotonicity ----- *)

(* Priorities are per-id, so the sample at budget B is a subset of the
   sample at B + k: a larger budget only ever adds candidates, and the
   tier-1 leader can only improve. *)
let test_budget_monotone () =
  let space = gemm_space () in
  let head budget =
    match (run ~budget space).S.o_ranking with
    | s :: _ -> s.S.estimate.PM.time_s
    | [] -> infinity
  in
  let ts = List.map head [ 64; 128; 256; 512 ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
      check_bool "tier-1 leader never worsens with budget" true
        (b <= a +. 1e-15);
      check rest
    | _ -> ()
  in
  check ts

let test_budget_nested () =
  (* The id sets themselves nest: every id sampled at budget B appears
     at budget 2B. *)
  let space = gemm_space () in
  let all = space.S.enumerate () in
  let ids budget =
    S.select_budget ~seed:42 ~max_candidates:budget all
    |> List.map (fun (c : S.candidate) -> c.S.id)
  in
  let small = ids 100 and large = ids 200 in
  check_int "small sample size" 100 (List.length small);
  List.iter
    (fun id -> check_bool "nested sample" true (List.mem id large))
    small

(* ----- the equivalence oracle ----- *)

let test_oracle_accepts_winner () =
  let o = run (gemm_space ()) in
  match o.S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w -> check_bool "accept" true (S.verify_candidate machine w.S.sc.S.cand)

(* Two tensor-core GEMMs that differ only in K. *)
let gemm_k k =
  let arch = Arch.SM86 in
  let base = Kernels.Gemm.default_config arch in
  Kernels.Gemm.tensor_core arch
    { base with Kernels.Gemm.bm = 32; bn = 32; bk = 32; wm = 16; wn = 16 }
    ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k ()

let test_oracle_rejects_mismatched_plan () =
  (* Hold candidate A's kernel to candidate B's plan: a decomposition
     that computes a different problem must fail the bitwise oracle. *)
  let k64 = gemm_k 64 and k128 = gemm_k 128 in
  let plan64, _ = Lower.Pipeline.lower_cached Arch.SM86 k64 ~stages:1 in
  let plan128, _ = Lower.Pipeline.lower_cached Arch.SM86 k128 ~stages:1 in
  check_bool "accepts the matching plan" true (S.verify_plan k64 plan64);
  check_bool "rejects the mismatched plan" false (S.verify_plan k128 plan64);
  check_bool "rejects the mismatched kernel" false (S.verify_plan k64 plan128)

(* The oracle says what diverged, not just that something did: the
   mismatched plan's run names at least one counter field and the
   output buffer. *)
let test_oracle_names_mismatches () =
  let k128 = gemm_k 128 in
  let plan64, _ = Lower.Pipeline.lower_cached Arch.SM86 (gemm_k 64) ~stages:1 in
  let args =
    List.mapi
      (fun i (p : Gpu_tensor.Tensor.t) ->
        ( p.Gpu_tensor.Tensor.name
        , Reference.Cpu_ref.random_fp16 ~seed:(i + 1)
            (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) ))
      k128.Graphene.Spec.params
  in
  match
    Gpu_sim.Oracle.check ~reference:k128 plan64 ~args
      [ (Gpu_sim.Interp.Bytecode, 1) ]
  with
  | [ (_, _, mismatches) ] ->
    let named = List.map Gpu_sim.Oracle.mismatch_to_string mismatches in
    let has p = List.exists p mismatches in
    check_bool
      ("a counter field is named: " ^ String.concat "; " named)
      true
      (has (function
        | Gpu_sim.Oracle.Counter ("tensor_core_flops", _, _) -> true
        | _ -> false));
    check_bool "the output buffer is named" true
      (has (function Gpu_sim.Oracle.Buffer "C" -> true | _ -> false))
  | _ -> Alcotest.fail "expected exactly one run"

(* ----- the FMHA space ----- *)

let test_fmha_space () =
  let o = run ~budget:4096 (fmha_space ()) in
  check_bool "candidates scored" true (o.S.o_scored > 0);
  check_bool "verified" true o.S.o_verified;
  check_bool "beats the fixed sweep" true (S.winner_beats_baseline o);
  (* The stages axis exercises the swpipe refusal telemetry: FMHA's K/V
     buffers escape the staging loop into the softmax. *)
  check_bool "swpipe refusals recorded" true
    (List.mem_assoc "buffer-escapes:KVs" o.S.o_swpipe_refusals)

let test_fmha_deterministic () =
  let json d =
    S.to_json ~wall:false (run ~budget:4096 ~domains:d (fmha_space ()))
  in
  check_string "domains 1 vs 4" (json 1) (json 4)

(* ----- measured feedback ----- *)

let test_feedback_in_range () =
  let o = run (gemm_space ()) in
  List.iter
    (fun (s : S.simulated) ->
      check_bool "measured width within [1, 4]" true
        (s.S.measured_vec >= 1.0 && s.S.measured_vec <= 4.0);
      check_bool "occupancy within [0, 1]" true
        (s.S.occupancy >= 0.0 && s.S.occupancy <= 1.0 +. 1e-9))
    o.S.o_simulated

(* ----- GEMM tuning contracts ----- *)

(* Every tile configuration of the fixed sweep builds a kernel the
   validator accepts. *)
let test_gemm_configs_valid () =
  let m = 512 and n = 512 and k = 512 in
  let cfgs = S.gemm_configs Arch.SM86 ~m ~n ~k in
  check_bool "several configurations" true (List.length cfgs > 5);
  List.iter
    (fun cfg ->
      let kernel =
        Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.none
          ~m ~n ~k ()
      in
      Alcotest.(check (list string)) "well-formed" []
        (Graphene.Validate.check Arch.SM86 kernel))
    cfgs

(* Tier 1 over the fixed-sweep ([legacy]) candidates of a GEMM space,
   ranked the way the search ranks it. The whole space's head can only
   be at or below this one. *)
let legacy_tier1_ranking ~m ~n ~k =
  let space = S.gemm_space Arch.SM86 ~m ~n ~k () in
  S.tier1 machine
    (List.filter (fun (c : S.candidate) -> c.S.legacy) (space.S.enumerate ()))
  |> List.filter_map (function _, S.Scored s -> Some s | _ -> None)
  |> List.sort (fun (a : S.scored) b ->
         match Float.compare a.S.estimate.PM.time_s b.S.estimate.PM.time_s with
         | 0 -> compare a.S.cand.S.id b.S.cand.S.id
         | c -> c)

let test_ranking_sorted () =
  let o = run (gemm_space ()) in
  let rec sorted = function
    | (a : S.scored) :: (b :: _ as rest) ->
      a.S.estimate.PM.time_s <= b.S.estimate.PM.time_s && sorted rest
    | _ -> true
  in
  check_bool "ranking non-empty" true (o.S.o_ranking <> []);
  check_bool "sorted by estimate" true (sorted o.S.o_ranking)

(* A skinny problem must not be stuck with the square default's tiles:
   the tier-1 head of the fixed sweep is at or below the library-default
   configuration, scored single-buffered (stages = 1 serializes copy and
   compute). That (default, 1 stage) point is in the sweep itself, so
   the head can only match or beat it. Model-only: no simulation. *)
let test_head_beats_default () =
  let default = Kernels.Gemm.default_config Arch.SM86 in
  let score ~m ~n ~k =
    (PM.of_kernel machine
       ~pipeline:{ PM.stages = 1; occupancy = 0.0 }
       (Kernels.Gemm.tensor_core Arch.SM86 default
          ~epilogue:Kernels.Epilogue.none ~m ~n ~k ())
       ())
      .PM.time_s
  in
  List.iter
    (fun (m, n, k) ->
      match legacy_tier1_ranking ~m ~n ~k with
      | [] -> Alcotest.failf "no scored candidate at %dx%dx%d" m n k
      | head :: _ ->
        check_bool
          (Printf.sprintf "head beats default at %dx%dx%d" m n k)
          true
          (head.S.estimate.PM.time_s <= score ~m ~n ~k +. 1e-9))
    [ (5376, 5376, 2048); (256, 4096, 512); (4096, 256, 512) ]

(* The search winner, rebuilt at the full problem size, computes the
   GEMM the CPU reference computes. *)
let test_winner_matches_cpu_reference () =
  let m = 128 and n = 128 and k = 128 in
  let o = run (gemm_space ()) in
  match o.S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    let kernel = w.S.sc.S.cand.S.build () in
    let a = Reference.Cpu_ref.random_fp16 ~seed:1 (m * k) in
    let b = Reference.Cpu_ref.random_fp16 ~seed:2 (k * n) in
    let c = Array.make (m * n) 0.0 in
    ignore
      (Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
         ~args:[ ("A", a); ("B", b); ("C", c) ]
         ());
    let c_ref = Array.make (m * n) 0.0 in
    Reference.Cpu_ref.gemm ~m ~n ~k a b c_ref;
    check_bool "winner is correct" true (Reference.Cpu_ref.allclose c c_ref)

let () =
  Alcotest.run "search"
    [ ( "determinism"
      , [ Alcotest.test_case "across domains" `Slow
            test_deterministic_across_domains
        ; Alcotest.test_case "across runs" `Quick
            test_deterministic_across_runs
        ] )
    ; ( "winner"
      , [ Alcotest.test_case "verified and beats baseline" `Quick
            test_winner_verified_and_beats_baseline
        ] )
    ; ( "budget"
      , [ Alcotest.test_case "leader monotone" `Slow test_budget_monotone
        ; Alcotest.test_case "samples nest" `Quick test_budget_nested
        ] )
    ; ( "oracle"
      , [ Alcotest.test_case "accepts winner" `Quick test_oracle_accepts_winner
        ; Alcotest.test_case "rejects mismatch" `Quick
            test_oracle_rejects_mismatched_plan
        ; Alcotest.test_case "names what diverged" `Quick
            test_oracle_names_mismatches
        ] )
    ; ( "fmha"
      , [ Alcotest.test_case "space searches and verifies" `Quick
            test_fmha_space
        ; Alcotest.test_case "deterministic" `Quick test_fmha_deterministic
        ] )
    ; ( "feedback"
      , [ Alcotest.test_case "measured values in range" `Quick
            test_feedback_in_range
        ] )
    ; ( "gemm"
      , [ Alcotest.test_case "configurations validate" `Slow
            test_gemm_configs_valid
        ; Alcotest.test_case "ranking sorted" `Quick test_ranking_sorted
        ; Alcotest.test_case "head beats default" `Quick
            test_head_beats_default
        ; Alcotest.test_case "winner computes correctly" `Quick
            test_winner_matches_cpu_reference
        ] )
    ]
