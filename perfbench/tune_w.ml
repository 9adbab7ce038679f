(* tune-search: [Tuner.Search.search] over the sm86 GEMM space
   (4096x4096x1024) and the sm86 FMHA space (seq 256, dh 64) at budget
   4096 and 8 proxies — the BENCH_tune.json reference point. The budget
   covers both whole spaces, so every seed searches the same candidates;
   the seed only moves the oracle's random inputs. An op is one space
   searched. It fails if its winner is not verified, loses to the
   fixed-sweep baseline, or its proxy output mismatches the CPU
   reference. *)

open Common
module S = Tuner.Search
module PM = Gpu_sim.Perf_model
module Pool = Gpu_sim.Domain_pool

let arch = Graphene.Arch.SM86
let machine = Gpu_sim.Machine.of_arch arch
let budget = 4096
let proxy_top = 8
let gemm_mnk = (4096, 4096, 1024)
let fmha_seq, fmha_dh = (256, 64)

let spaces () =
  let m, n, k = gemm_mnk in
  [ S.gemm_space arch ~m ~n ~k (); S.fmha_space arch ~seq:fmha_seq ~dh:fmha_dh () ]

let knob (c : S.candidate) name = int_of_string (List.assoc name c.S.knobs)

(* Set-up: enumerate both spaces, spawn the pool, and build, lower and
   model-score each space's first fixed-sweep candidate. *)
let setup () =
  Lower.Pipeline.cache_clear ();
  spawn_pool ();
  List.iter
    (fun sp ->
      match List.find_opt (fun (c : S.candidate) -> c.S.legacy) (sp.S.enumerate ()) with
      | Some c -> ignore (S.score_candidate machine c)
      | None -> ())
    (spaces ())

(* The winner's proxy plan on seeded fp16 inputs against the CPU
   reference. *)
let winner_output_ok ~seed (sp : S.space) (w : S.simulated) =
  let c = w.S.sc.S.cand in
  match
    let pk = c.S.proxy () in
    let plan, _ =
      Lower.Pipeline.lower_cached ?vectorize:c.S.vectorize arch pk ~stages:c.S.stages
    in
    let args = seeded_args ~seed ~outputs:[ "C"; "O" ] pk in
    ignore (Gpu_sim.Interp.run_plan ~domains:1 plan ~args ());
    args
  with
  | exception e ->
    prerr_endline ("perfbench: winner proxy run raised " ^ Printexc.to_string e);
    false
  | args -> (
    let a name = List.assoc name args in
    match sp.S.space_name with
    | "gemm" ->
      let m, n, k = gemm_mnk in
      let bm = knob c "bm" and bn = knob c "bn" and bk = knob c "bk" in
      let m = bm * min 2 (m / bm) and n = bn * min 2 (n / bn)
      and k = bk * min 4 (k / bk) in
      gemm_ok (a "C") (gemm_ref ~m ~n ~k (a "A") (a "B"))
    | _ ->
      let seq = min fmha_seq (2 * knob c "chunk") in
      attention_ok (a "O") (attention_ref ~heads:1 ~seq ~dh:fmha_dh (a "Q") (a "K") (a "V")))

let space_ok ~seed sp (o : S.outcome) =
  let why =
    if not o.S.o_verified then Some "winner not verified"
    else if not (S.winner_beats_baseline o) then Some "winner loses to the fixed sweep"
    else
      match o.S.o_winner with
      | Some w when winner_output_ok ~seed sp w -> None
      | _ -> Some "winner proxy output mismatches the CPU reference"
  in
  Option.iter
    (fun w -> Printf.eprintf "perfbench: %s search failed: %s\n" sp.S.space_name w)
    why;
  why = None

let winner_id (o : S.outcome) =
  match o.S.o_winner with Some w -> w.S.sc.S.cand.S.id | None -> -1

let winner_us (o : S.outcome) =
  match o.S.o_winner with Some w -> w.S.refined.PM.time_s *. 1e6 | None -> 0.0

let record_exact (o : S.outcome) =
  let p = "tune." ^ o.S.o_space ^ "." in
  exact (p ^ "scored") (jint o.S.o_scored);
  exact (p ^ "dominated") (jint o.S.o_dominated);
  exact (p ^ "winner") (jint (winner_id o));
  exact (p ^ "winner_model_us") (jnum (winner_us o))

(* One search of every space: the outcomes (or the exception) with their
   wall and CPU seconds. *)
let search_all ~seed =
  List.map
    (fun sp ->
      let res, wall, cpu =
        time_cpu (fun () ->
            match S.search ~seed ~max_candidates:budget ~proxy_top machine sp () with
            | o -> Ok o
            | exception e -> Error e)
      in
      (sp, res, (wall, cpu)))
    (spaces ())

let check ~seed results =
  List.fold_left
    (fun (attempted, failed) (sp, res, _) ->
      match res with
      | Ok o -> (attempted + 1, if space_ok ~seed sp o then failed else failed + 1)
      | Error e ->
        Printf.eprintf "perfbench: %s search raised %s\n" sp.S.space_name
          (Printexc.to_string e);
        (attempted + 1, failed + 1))
    (0, 0) results

(* Each timed iteration searches both spaces with a cold plan cache, as
   a fresh [tune] process would. Throughput counts the spaces searched;
   the checks' verdicts are reported in [failed]. *)
let timed ~seed ~seconds =
  note "search_seed" (jint seed);
  let attempted = ref 0 and failed = ref 0 in
  measure ~prepare:fresh ~seconds (fun i ->
      let results = search_all ~seed in
      if i = 0 then List.iter (function _, Ok o, _ -> record_exact o | _ -> ()) results;
      let check () =
        let a, f = check ~seed results in
        if i = 0 then note "first_iteration" (jobj [ ("attempted", jint a); ("failed", jint f) ]);
        attempted := !attempted + a;
        failed := !failed + f
      in
      ( List.length (List.filter (function _, Ok _, _ -> true | _ -> false) results)
      , sum (List.map (fun (_, _, (w, _)) -> w) results)
      , sum (List.map (fun (_, _, (_, c)) -> c) results)
      , check ));
  (!attempted, !failed)

(* The share of tier-2 proxies whose lowered proxy plan differs from
   every other proxy's. A proxy whose simulation failed has no plan and
   counts as not distinct. Run while the search's plans are cached. *)
let proxy_distinct (o : S.outcome) =
  let prints =
    List.map
      (fun (s : S.simulated) ->
        let c = s.S.sc.S.cand in
        let plan, _ =
          Lower.Pipeline.lower_cached ?vectorize:c.S.vectorize arch (c.S.proxy ())
            ~stages:c.S.stages
        in
        Digest.string (Lower.Plan.to_string plan))
      o.S.o_simulated
  in
  let distinct =
    List.length
      (List.filter (fun d -> List.length (List.filter (String.equal d) prints) = 1) prints)
  in
  let sim_failed = Option.value ~default:0 (List.assoc_opt "sim-failed" o.S.o_pruned) in
  (distinct, List.length prints + sim_failed)

(* ----- the traced run -----

   [Search.search] is one opaque call, so the traced run does the
   untraced search's work again through the tiers' public sub-steps: per
   candidate of the budget [build] -> [Pipeline.lower_cached] ->
   [Static_analysis.of_kernel] -> [Perf_model.of_totals] (tier 1); for
   each proxy the search simulated, the proxy build, lowering, execution
   and refined estimate of [Search.simulate] (tier 2); and down the
   search's refined order, the tree and plan executions of
   [Search.verify_candidate] (tier 3). Which candidates reach tiers 2
   and 3 is taken from the search's outcome. Every candidate of the
   outcome's ranking must score, and every proxy refine, exactly as in
   the search, and tier 3 must accept the same winner after the same
   rejections. [score], [simulate] and [verify] mirror the library
   functions of those names: a change to them must change these too. *)

let lower_span ~tag (c : S.candidate) kernel =
  Span.with_ ~layer:"lower" ~tag "Pipeline.lower_cached"
    ~kind:(fun (_, hit) -> if hit then "hit" else "miss")
    (fun () -> Lower.Pipeline.lower_cached ?vectorize:c.S.vectorize arch kernel ~stages:c.S.stages)

(* Tier 1 of one candidate: its estimate and bound, or [None] when it
   was pruned. *)
let score ~parent (c : S.candidate) =
  let tag = c.S.id in
  Span.with_ ~parent ~layer:"tuner" ~tag "Search.score_candidate" (fun () ->
      match Span.with_ ~layer:"kernels" ~tag "candidate.build" c.S.build with
      | exception Invalid_argument _ -> None
      | kernel -> (
        match lower_span ~tag c kernel with
        | exception _ -> None
        | plan, _ ->
          let vec_width =
            Option.value ~default:4.0 (Lower.Plan.global_vec_width plan.Lower.Plan.body)
          in
          let eff_stages = plan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
          let totals =
            Span.with_ ~layer:"gpu_sim.model" ~tag "Static_analysis.of_kernel" (fun () ->
                Gpu_sim.Static_analysis.of_kernel arch kernel ())
          in
          Span.with_ ~layer:"gpu_sim.model" ~tag "Perf_model.of_totals" (fun () ->
              Some
                ( c.S.id
                , ( PM.of_totals ~vec_width
                      ~pipeline:
                        { PM.stages = eff_stages; occupancy = S.assumed_occupancy eff_stages }
                      machine totals
                  , PM.of_totals ~vec_width:4.0
                      ~pipeline:{ PM.stages = eff_stages; occupancy = 1.0 }
                      machine totals ) ))))

(* Tier 2 of one proxy: its refined estimate, or [None] when the proxy
   run failed. *)
let simulate ~parent (s : S.scored) =
  let c = s.S.cand in
  let tag = c.S.id in
  Span.with_ ~parent ~layer:"tuner" ~tag "Search.simulate" (fun () ->
      match
        let pk = Span.with_ ~layer:"kernels" ~tag "candidate.proxy" c.S.proxy in
        let plan, _ = lower_span ~tag c pk in
        let counters =
          Span.with_ ~layer:"gpu_sim.exec" ~tag "Interp.run_plan" (fun () ->
              Gpu_sim.Interp.run_plan ~domains:1 plan ~args:(S.zero_args pk) ())
        in
        (plan, counters)
      with
      | exception _ -> None
      | plan, counters ->
        let proxy_stages = plan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
        let occupancy =
          if proxy_stages <= 1 then 0.0
          else Gpu_sim.Counters.async_occupancy counters ~stages:proxy_stages
        in
        let measured_vec =
          Float.min 4.0 (Float.max 1.0 (Gpu_sim.Counters.global_mean_vec_width counters))
        in
        Span.with_ ~layer:"gpu_sim.model" ~tag "Perf_model.of_kernel" (fun () ->
            Some
              ( c.S.id
              , PM.of_kernel ~vec_width:measured_vec
                  ~pipeline:{ PM.stages = s.S.eff_stages; occupancy }
                  machine (c.S.build ()) () )))

(* Tier 3 of one candidate: [Search.verify_candidate], with the tree and
   plan executions of [Search.verify_plan] traced separately. *)
let verify ~seed (c : S.candidate) =
  let tag = c.S.id in
  Span.with_ ~layer:"tuner" ~tag "Search.verify_candidate" (fun () ->
      match
        let pk = c.S.proxy () in
        (pk, fst (lower_span ~tag c pk))
      with
      | exception _ -> false
      | pk, plan -> (
        let args_tree = seeded_args ~seed ~outputs:[] pk in
        let args_plan = copy_args args_tree in
        match
          let ct =
            Span.with_ ~layer:"gpu_sim.tree" ~tag "Interp.run_tree" (fun () ->
                Gpu_sim.Interp.run_tree ~arch ~domains:1 pk ~args:args_tree ())
          in
          let cp =
            Span.with_ ~layer:"gpu_sim.exec" ~tag "Interp.run_plan" (fun () ->
                Gpu_sim.Interp.run_plan ~domains:1 plan ~args:args_plan ())
          in
          (ct, cp)
        with
        | exception _ -> false
        | ct, cp -> S.counters_equal ct cp && args_tree = args_plan))

(* Fan [f] out over the pool in ascending contiguous groups, as the
   search's tiers do; [f] gets the fanning span as its parent. *)
let fan_out f items =
  let total = List.length items in
  let chunks = S.ndomains_for total in
  let parent = Span.current () in
  if chunks <= 1 then List.map (f ~parent) items
  else begin
    let arr = Array.of_list items in
    Span.with_ ~layer:"gpu_sim.pool" "Domain_pool.run_list" (fun () ->
        let parent = Span.current () in
        Pool.run_list (Pool.global ())
          (List.map
             (fun (lo, hi) () -> List.init (hi - lo) (fun i -> f ~parent arr.(lo + i)))
             (Pool.block_ranges ~total ~chunks))
        |> List.concat)
  end

(* Redo [o]'s search of [sp] traced; true when every tier reproduced
   it. *)
let redrive ~seed (sp : S.space) (o : S.outcome) =
  let group name f = Span.with_ ~layer:bench_layer name f in
  group ("search " ^ sp.S.space_name) (fun () ->
      let cands = S.select_budget ~seed ~max_candidates:budget (sp.S.enumerate ()) in
      let scores =
        group "tier 1" (fun () -> List.filter_map Fun.id (fan_out score cands))
      in
      let same_score (s : S.scored) =
        match List.assoc_opt s.S.cand.S.id scores with
        | Some (est, bound) ->
          est.PM.time_s = s.S.estimate.PM.time_s && bound.PM.time_s = s.S.bound.PM.time_s
        | None -> false
      in
      let tier1_same =
        List.length scores = o.S.o_scored + o.S.o_deduped && List.for_all same_score o.S.o_ranking
      in
      (* The outcome's candidates have built and memoized their kernels;
         tiers 2 and 3 use this run's own, as the search did. *)
      let own (s : S.simulated) =
        { s.S.sc with
          S.cand = List.find (fun (c : S.candidate) -> c.S.id = s.S.sc.S.cand.S.id) cands
        }
      in
      let proxies = List.map own o.S.o_simulated in
      let sims =
        group "tier 2" (fun () -> List.filter_map Fun.id (fan_out simulate proxies))
      in
      let tier2_same =
        List.length sims = List.length o.S.o_simulated
        && List.for_all
             (fun (s : S.simulated) ->
               match List.assoc_opt s.S.sc.S.cand.S.id sims with
               | Some refined -> refined.PM.time_s = s.S.refined.PM.time_s
               | None -> false)
             o.S.o_simulated
      in
      let rec pick rejected = function
        | [] -> (-1, rejected)
        | (s : S.scored) :: rest ->
          if verify ~seed s.S.cand then (s.S.cand.S.id, rejected) else pick (rejected + 1) rest
      in
      let winner, rejected = group "tier 3" (fun () -> pick 0 proxies) in
      tier1_same && tier2_same && winner = winner_id o && rejected = o.S.o_verify_rejected)

let traced ~seed =
  note "search_seed" (jint seed);
  fresh ();
  let gc0 = Gc.quick_stat () in
  let results = search_all ~seed in
  let gc1 = Gc.quick_stat () in
  set "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  set_int "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
  let untraced_wall = sum (List.map (fun (_, _, (w, _)) -> w) results) in
  let attempted, failed = check ~seed results in
  let searched = List.filter_map (function sp, Ok o, _ -> Some (sp, o) | _ -> None) results in
  let outcomes = List.map snd searched in
  List.iter record_exact outcomes;
  let total f = sum (List.map f outcomes) in
  let itotal f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  set "tune.tier1_s" (total (fun o -> o.S.o_tier1_s));
  set "tune.tier2_s" (total (fun o -> o.S.o_tier2_s));
  set "tune.tier3_s" (total (fun o -> o.S.o_tier3_s));
  set "tune.candidates_per_s"
    (ratio (float_of_int (itotal (fun o -> o.S.o_in_budget))) (get "tune.tier1_s"));
  set_int "tune.scored" (itotal (fun o -> o.S.o_scored));
  set_int "tune.dominated" (itotal (fun o -> o.S.o_dominated));
  let passes = itotal (fun o -> if o.S.o_verified then 1 else 0) in
  set "tune.verified_ratio"
    (ratio (float_of_int passes) (float_of_int (passes + itotal (fun o -> o.S.o_verify_rejected))));
  let distinct, proxies =
    List.fold_left
      (fun (d, p) o ->
        let d', p' = proxy_distinct o in
        (d + d', p + p'))
      (0, 0) outcomes
  in
  set "tune.proxy_distinct_ratio" (ratio (float_of_int distinct) (float_of_int proxies));
  List.iter
    (fun o -> set ("tune." ^ o.S.o_space ^ ".winner_model_us") (winner_us o))
    outcomes;
  fresh ();
  Span.enable ();
  let same, traced_wall =
    time (fun () -> List.for_all Fun.id (List.map (fun (sp, o) -> redrive ~seed sp o) searched))
  in
  Span.disable ();
  let spans = Span.collect () in
  if not same then prerr_endline "perfbench: traced search diverged from Search.search";
  record_layer_metrics spans;
  finish_trace ~workload:"tune-search" ~seed ~traced_wall ~untraced_wall spans;
  (attempted, if same then failed else attempted)
