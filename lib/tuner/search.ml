(* Schedule-space search: the one tuner, from autotuner to
   superoptimizer.

   This module searches a kernel's decomposition space — tile and
   warp-tile shapes, swizzle on/off, vectorize on/off, software pipeline
   depth — behind a kernel-agnostic candidate interface, so the same
   engine tunes GEMM and FMHA (and any space a caller enumerates). The
   old fixed sweep over GEMM tile configurations lives on as the
   [legacy] sub-space of {!gemm_space}: the baseline every search must
   beat.

   The search runs in three escalating tiers:

   1. model scoring of the full frontier: build each candidate's kernel
      IR, lower it through the plan cache (lowering refusals reject the
      candidate before any simulation; the vectorize and swpipe passes'
      verdicts feed the score), and rank by the perf model's
      latency-hiding estimate at the assumed steady-state occupancy;
   2. proxy simulation of the top-K front-runners: execute each on a
      shrunken proxy problem and feed the *measured* async-copy queue
      occupancy ({!Gpu_sim.Counters.async_occupancy}) and global access
      width ({!Gpu_sim.Counters.global_mean_vec_width}) back into the
      model, replacing tier 1's assumptions;
   3. exact verification of the winner: the proxy plan must replay
      bit-identical to the tree-walking reference interpreter on seeded
      random inputs — search aggressively because verification is exact
      (the Mirage move).

   Everything is deterministic: candidate ids are enumeration positions,
   the budget subsample is a seeded splitmix64 priority (nested across
   budgets), all parallel fan-out uses the domain pool's
   ascending-regroup discipline, and every ranking sort breaks ties on
   id — the outcome (and its JSON) is byte-identical at any domain
   count. Wall-clock fields are quarantined so [to_json ~wall:false]
   diffs clean across runs. *)

module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Ts = Gpu_tensor.Tensor
module Gemm = Kernels.Gemm
module Fmha = Kernels.Fmha
module PM = Gpu_sim.Perf_model
module C = Gpu_sim.Counters

(* ----- the candidate-space interface ----- *)

(* One point of the decomposition space. [build] returns the kernel IR
   at the full problem size (tier 1 scores its static totals); [proxy]
   returns the same decomposition on a shrunken problem — big enough to
   reach the pipeline's steady state (>= 4 staging tiles), small enough
   to simulate in milliseconds — for tiers 2 and 3. Both may raise
   [Invalid_argument] for points the kernel builder refuses; such
   candidates are pruned, not errors. *)
type candidate =
  { id : int  (** position in enumeration order: the tie-break everywhere *)
  ; knobs : (string * string) list
        (** the decomposition's knob settings, for display/telemetry *)
  ; stages : int  (** requested software-pipeline depth *)
  ; vectorize : bool option
        (** [Some b] pins the vectorize pass; [None] = process default *)
  ; legacy : bool
        (** member of the fixed sweep ({!gemm_configs} with
            library-default swizzle and vectorize) — the baseline the
            search must beat *)
  ; build : unit -> Spec.kernel
  ; proxy : unit -> Spec.kernel
  }

type space =
  { space_name : string
  ; arch : Arch.t
  ; problem : string  (** human-readable problem size, e.g. "4096x4096x1024" *)
  ; enumerate : unit -> candidate list
  }

(* Build closures are called from tier 1 (possibly on a pool worker) and
   again from tiers 2/3; memoizing keeps each kernel IR built once. The
   plain ref is safe under domain parallelism — the payload is immutable
   and the build pure, so the worst a race costs is a duplicate build. *)
let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

(* ----- tier 1: model scoring ----- *)

let stages_space = [ 1; 2; 3 ]

(* Modeled queue occupancy for an N-stage pipeline before any measured
   value exists: the steady state keeps N-1 of N slots in flight. *)
let assumed_occupancy stages =
  if stages <= 1 then 0.0
  else float_of_int (stages - 1) /. float_of_int stages

type scored =
  { cand : candidate
  ; estimate : PM.estimate
        (** tier-1 score: measured legality (vec width, effective
            stages) at the assumed occupancy *)
  ; bound : PM.estimate
        (** optimistic bound: full v4 width, perfect overlap — no
            measurement can push the candidate below this, so anything
            whose bound trails the tier-1 leader is dominated *)
  ; vec_width : float  (** structural width of the lowered plan *)
  ; eff_stages : int  (** the plan's effective pipeline depth *)
  ; vec_refusals : (string * int) list
        (** {!Lower.Plan.refusal_histogram} of the lowered plan *)
  ; swpipe_refusals : (string * string) list
        (** the plan's [(loop, reason slug)] pipelining refusals *)
  ; score_s : float  (** wall time to build + lower + score (telemetry) *)
  }

type verdict =
  | Scored of scored
  | Pruned of string  (** reason slug: [build-refused] / [lower-refused] *)

let score_candidate (machine : Gpu_sim.Machine.t) (cand : candidate) =
  let t0 = Unix.gettimeofday () in
  let arch = machine.Gpu_sim.Machine.arch in
  match cand.build () with
  | exception Invalid_argument _ -> Pruned "build-refused"
  | kernel -> (
    match
      Lower.Pipeline.lower_cached ?vectorize:cand.vectorize arch kernel
        ~stages:cand.stages
    with
    | exception _ -> Pruned "lower-refused"
    | plan, _ ->
      let vec_width =
        Option.value ~default:4.0
          (Lower.Plan.global_vec_width plan.Lower.Plan.body)
      in
      let eff_stages = plan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
      let vec_refusals = Lower.Plan.refusal_histogram plan.Lower.Plan.body in
      let swpipe_refusals = plan.Lower.Plan.pipelining.Lower.Plan.pl_refusals in
      let totals = Gpu_sim.Static_analysis.of_kernel arch kernel () in
      let estimate =
        PM.of_totals ~vec_width
          ~pipeline:
            { PM.stages = eff_stages
            ; occupancy = assumed_occupancy eff_stages
            }
          machine totals
      in
      let bound =
        PM.of_totals ~vec_width:4.0
          ~pipeline:{ PM.stages = eff_stages; occupancy = 1.0 }
          machine totals
      in
      Scored
        { cand
        ; estimate
        ; bound
        ; vec_width
        ; eff_stages
        ; vec_refusals
        ; swpipe_refusals
        ; score_s = Unix.gettimeofday () -. t0
        })

let ndomains_for ?domains total =
  let d =
    match domains with
    | Some d -> d
    | None -> Gpu_sim.Domain_pool.default_domains ()
  in
  max 1 (min d total)

(* Score every candidate, in parallel over contiguous enumeration-order
   groups (one pool task each); ascending regroup keeps the returned
   list — hence everything downstream — identical at every domain
   count. *)
let tier1 ?domains machine cands =
  let total = List.length cands in
  let chunks = ndomains_for ?domains total in
  let f c = (c, score_candidate machine c) in
  if chunks <= 1 then List.map f cands
  else begin
    let carr = Array.of_list cands in
    Gpu_sim.Domain_pool.run_list
      (Gpu_sim.Domain_pool.global ())
      (List.map
         (fun (lo, hi) () -> List.init (hi - lo) (fun i -> f carr.(lo + i)))
         (Gpu_sim.Domain_pool.block_ranges ~total ~chunks))
    |> List.concat
  end

(* ----- tier 2: proxy simulation with measured feedback ----- *)

type simulated =
  { sc : scored
  ; refined : PM.estimate
        (** the tier-1 estimate re-derived with measured occupancy and
            measured global access width *)
  ; occupancy : float  (** measured async-queue occupancy on the proxy *)
  ; measured_vec : float  (** measured mean global width, elements/request *)
  ; proxy_stages : int  (** the proxy plan's effective pipeline depth *)
  ; sim_s : float  (** wall time of the proxy run (telemetry) *)
  }

let zero_args (kernel : Spec.kernel) =
  List.map
    (fun (p : Ts.t) ->
      (p.Ts.name, Array.make (Shape.Layout.cosize p.Ts.layout) 0.0))
    kernel.Spec.params

(* Traffic is data-independent, so the proxy runs on zero-filled buffers
   and one domain (the candidates themselves fan out over the pool). *)
let simulate (machine : Gpu_sim.Machine.t) (s : scored) =
  let t0 = Unix.gettimeofday () in
  let arch = machine.Gpu_sim.Machine.arch in
  match
    let pk = s.cand.proxy () in
    let plan, _ =
      Lower.Pipeline.lower_cached ?vectorize:s.cand.vectorize arch pk
        ~stages:s.cand.stages
    in
    (pk, plan, Gpu_sim.Interp.run_plan ~domains:1 plan ~args:(zero_args pk) ())
  with
  | exception _ -> None
  | _, plan, counters ->
    let proxy_stages = plan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
    let occupancy =
      if proxy_stages <= 1 then 0.0
      else C.async_occupancy counters ~stages:proxy_stages
    in
    (* The model's DRAM-efficiency term is calibrated for widths in
       [1, 4] (scalar .. v4); clamp so a measurement artifact can never
       push the refined estimate outside the calibrated range. *)
    let measured_vec =
      Float.min 4.0 (Float.max 1.0 (C.global_mean_vec_width counters))
    in
    let refined =
      PM.of_kernel ~vec_width:measured_vec
        ~pipeline:{ PM.stages = s.eff_stages; occupancy }
        machine (s.cand.build ()) ()
    in
    Some
      { sc = s
      ; refined
      ; occupancy
      ; measured_vec
      ; proxy_stages
      ; sim_s = Unix.gettimeofday () -. t0
      }

(* ----- tier 3: the exact equivalence oracle ----- *)

(* The tree <-> plan counter contract (Counters.contract_diff). *)
let counters_equal (a : C.t) (b : C.t) = C.contract_diff a b = []

(* [verify_plan kernel plan] — hold [plan] to the oracle
   ([Gpu_sim.Oracle]): [kernel] through the tree-walking reference
   interpreter and [plan] through the bytecode engine, on copies of the
   same seeded random fp16 buffers; accept only if every buffer and
   every contract counter is bitwise identical. A plan that reorders a
   floating-point reduction, skips an element, or mismatches the kernel
   it claims to implement fails bitwise even when it is numerically
   plausible. *)
let verify_plan ?(seed = 0) (kernel : Spec.kernel) (plan : Lower.Plan.t) =
  let args =
    List.mapi
      (fun i (p : Ts.t) ->
        ( p.Ts.name
        , Reference.Cpu_ref.random_fp16
            ~seed:(seed + (31 * i) + 7)
            (Shape.Layout.cosize p.Ts.layout) ))
      kernel.Spec.params
  in
  match
    Gpu_sim.Oracle.check ~reference:kernel plan ~args
      [ (Gpu_sim.Interp.Bytecode, 1) ]
  with
  | exception _ -> false
  | runs -> List.for_all (fun (_, _, mismatches) -> mismatches = []) runs

(* Verify a candidate on its proxy problem: lower its proxy kernel (a
   plan-cache hit after tier 2) and hold the plan to the oracle. *)
let verify_candidate ?seed (machine : Gpu_sim.Machine.t) (cand : candidate) =
  let arch = machine.Gpu_sim.Machine.arch in
  match
    let pk = cand.proxy () in
    ( pk
    , fst
        (Lower.Pipeline.lower_cached ?vectorize:cand.vectorize arch pk
           ~stages:cand.stages) )
  with
  | exception _ -> false
  | pk, plan -> verify_plan ?seed pk plan

(* ----- seeded budget ----- *)

let splitmix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let priority ~seed id =
  splitmix64
    (Int64.add
       (Int64.mul (Int64.of_int (seed + 1)) 0x100000001B3L)
       (Int64.of_int id))

(* Take the [max_candidates] ids of highest seeded priority, then
   restore enumeration order. Priorities are per-id, so the sample at
   budget B is a subset of the sample at budget B+1: growing the budget
   only ever adds candidates, which is what makes the winner monotone
   in the budget. *)
let select_budget ~seed ~max_candidates cands =
  if List.length cands <= max_candidates then cands
  else
    List.map (fun (c : candidate) -> (priority ~seed c.id, c)) cands
    |> List.sort (fun (a, (ca : candidate)) (b, cb) ->
           match Int64.unsigned_compare a b with
           | 0 -> compare ca.id cb.id
           | c -> c)
    |> List.filteri (fun i _ -> i < max_candidates)
    |> List.map snd
    |> List.sort (fun (a : candidate) b -> compare a.id b.id)

(* ----- the search driver ----- *)

type outcome =
  { o_space : string
  ; o_arch : Arch.t
  ; o_problem : string
  ; o_engine : string  (** executor engine behind tiers 2/3 *)
  ; o_seed : int
  ; o_budget : int
  ; o_proxy_top : int
  ; o_enumerated : int  (** full frontier size before the budget *)
  ; o_in_budget : int
  ; o_scored : int  (** candidates that built, lowered and scored *)
  ; o_deduped : int  (** dropped as duplicate effective decomposition *)
  ; o_pruned : (string * int) list  (** prune-reason histogram *)
  ; o_dominated : int  (** excluded from tier 2 by the model bound *)
  ; o_vec_refusals : (string * int) list
        (** vectorize refusal slugs summed over the scored frontier *)
  ; o_swpipe_refusals : (string * int) list
        (** swpipe refusal slugs summed over the scored frontier *)
  ; o_ranking : scored list  (** tier-1 ranking, best first *)
  ; o_simulated : simulated list  (** tier-2 results, refined order *)
  ; o_baseline : simulated option
        (** the old fixed sweep's winner (best legacy candidate),
            proxy-simulated — always forced into tier 2 so the
            comparison is refined-vs-refined *)
  ; o_winner : simulated option  (** best refined candidate passing tier 3 *)
  ; o_verify_rejected : int  (** candidates the oracle rejected *)
  ; o_verified : bool
  ; o_tier1_s : float
  ; o_tier2_s : float
  ; o_tier3_s : float
  }

let winner_beats_baseline o =
  match (o.o_winner, o.o_baseline) with
  | Some w, Some b -> w.refined.PM.time_s <= b.refined.PM.time_s +. 1e-15
  | _ -> false

let merge_hist acc alist =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    acc alist
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let take n l = List.filteri (fun i _ -> i < n) l

let search ?(seed = 0) ?(max_candidates = 4096) ?(proxy_top = 8) ?domains
    (machine : Gpu_sim.Machine.t) (space : space) () =
  if not (Arch.equal machine.Gpu_sim.Machine.arch space.arch) then
    invalid_arg "Search.search: machine/space architecture mismatch";
  let proxy_top = max 1 proxy_top in
  let all = space.enumerate () in
  let cands = select_budget ~seed ~max_candidates all in
  (* tier 1: score the frontier *)
  let t0 = Unix.gettimeofday () in
  let t1 = tier1 ?domains machine cands in
  let tier1_s = Unix.gettimeofday () -. t0 in
  let pruned =
    List.fold_left
      (fun acc (_, v) ->
        match v with
        | Scored _ -> acc
        | Pruned reason -> merge_hist acc [ (reason, 1) ])
      [] t1
  in
  let scored_all =
    List.filter_map (function _, Scored s -> Some s | _ -> None) t1
  in
  (* A refused deeper request collapses to its effective depth: keep the
     first (lowest requested depth) of each effective decomposition. *)
  let seen = Hashtbl.create 64 in
  let scored =
    List.filter
      (fun s ->
        let key =
          ( List.filter (fun (k, _) -> not (String.equal k "stages")) s.cand.knobs
          , s.eff_stages )
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      scored_all
  in
  let deduped = List.length scored_all - List.length scored in
  (* The aggregate refusal histograms describe why passes *declined*
     across the frontier. "disabled" only records that a candidate had
     the knob off, so it is dropped (it stays visible in each
     candidate's own refusal list) — and the aggregation runs over the
     pre-dedup frontier: a refused deeper request collapses onto an
     already-seen effective decomposition, so the candidates the dedup
     drops are exactly the ones carrying the refusals. *)
  let drop_disabled = List.filter (fun (k, _) -> k <> "disabled") in
  let vec_refusals =
    List.fold_left
      (fun acc s -> merge_hist acc (drop_disabled s.vec_refusals))
      [] scored_all
  in
  let swpipe_refusals =
    List.fold_left
      (fun acc s ->
        merge_hist acc
          (drop_disabled
             (List.map (fun (_, slug) -> (slug, 1)) s.swpipe_refusals)))
      [] scored_all
  in
  let ranking =
    List.sort
      (fun a b ->
        match Float.compare a.estimate.PM.time_s b.estimate.PM.time_s with
        | 0 -> compare a.cand.id b.cand.id
        | c -> c)
      scored
  in
  let engine =
    Gpu_sim.Interp.engine_name (Gpu_sim.Interp.default_plan_engine ())
  in
  let base =
    { o_space = space.space_name
    ; o_arch = space.arch
    ; o_problem = space.problem
    ; o_engine = engine
    ; o_seed = seed
    ; o_budget = max_candidates
    ; o_proxy_top = proxy_top
    ; o_enumerated = List.length all
    ; o_in_budget = List.length cands
    ; o_scored = List.length scored
    ; o_deduped = deduped
    ; o_pruned = pruned
    ; o_dominated = 0
    ; o_vec_refusals = vec_refusals
    ; o_swpipe_refusals = swpipe_refusals
    ; o_ranking = ranking
    ; o_simulated = []
    ; o_baseline = None
    ; o_winner = None
    ; o_verify_rejected = 0
    ; o_verified = false
    ; o_tier1_s = tier1_s
    ; o_tier2_s = 0.0
    ; o_tier3_s = 0.0
    }
  in
  match ranking with
  | [] -> base
  | leader :: _ ->
    (* Dominated pruning: a candidate whose optimistic bound (full
       width, perfect overlap) cannot reach the tier-1 leader's
       estimate is excluded from tier 2 — no measurement could make it
       win. The fixed-sweep baseline is exempt: its refined estimate is
       the comparison point the telemetry must always carry. *)
    let incumbent = leader.estimate.PM.time_s in
    let viable =
      List.filter (fun s -> s.bound.PM.time_s <= incumbent +. 1e-18) ranking
    in
    let dominated = List.length ranking - List.length viable in
    let legacy_best =
      List.find_opt (fun s -> s.cand.legacy) ranking
    in
    let proxy_set =
      let head = take proxy_top viable in
      match legacy_best with
      | Some lb when not (List.exists (fun s -> s.cand.id = lb.cand.id) head)
        -> take (proxy_top - 1) head @ [ lb ]
      | _ -> head
    in
    (* tier 2: proxy-simulate, in parallel, ascending regroup *)
    let t0 = Unix.gettimeofday () in
    let sim_results =
      let total = List.length proxy_set in
      let chunks = ndomains_for ?domains total in
      let arr = Array.of_list proxy_set in
      let f i = (arr.(i), simulate machine arr.(i)) in
      if chunks <= 1 then List.init total f
      else
        Gpu_sim.Domain_pool.run_list
          (Gpu_sim.Domain_pool.global ())
          (List.map
             (fun (lo, hi) () -> List.init (hi - lo) (fun i -> f (lo + i)))
             (Gpu_sim.Domain_pool.block_ranges ~total ~chunks))
        |> List.concat
    in
    let tier2_s = Unix.gettimeofday () -. t0 in
    let pruned =
      List.fold_left
        (fun acc (_, r) ->
          match r with None -> merge_hist acc [ ("sim-failed", 1) ] | _ -> acc)
        pruned sim_results
    in
    let simulated =
      List.filter_map snd sim_results
      |> List.sort (fun a b ->
             match Float.compare a.refined.PM.time_s b.refined.PM.time_s with
             | 0 -> compare a.sc.cand.id b.sc.cand.id
             | c -> c)
    in
    let baseline =
      match legacy_best with
      | None -> None
      | Some lb ->
        List.find_opt (fun s -> s.sc.cand.id = lb.cand.id) simulated
    in
    (* tier 3: walk the refined ranking until the oracle accepts *)
    let t0 = Unix.gettimeofday () in
    let rec pick rejected = function
      | [] -> (None, rejected)
      | s :: rest ->
        if verify_candidate ~seed machine s.sc.cand then (Some s, rejected)
        else pick (rejected + 1) rest
    in
    let winner, verify_rejected = pick 0 simulated in
    let tier3_s = Unix.gettimeofday () -. t0 in
    { base with
      o_pruned = pruned
    ; o_dominated = dominated
    ; o_simulated = simulated
    ; o_baseline = baseline
    ; o_winner = winner
    ; o_verify_rejected = verify_rejected
    ; o_verified = winner <> None
    ; o_tier2_s = tier2_s
    ; o_tier3_s = tier3_s
    }

(* ----- the GEMM space ----- *)

(* All tile configurations valid for the problem (divisibility,
   warp-count, cooperative-staging and shared-memory constraints) — the
   fixed sweep's enumeration, and the [legacy] subset of {!gemm_space}. *)
let gemm_configs arch ~m ~n ~k =
  let base = Gemm.default_config arch in
  let tiles = [ 32; 64; 128; 256 ] in
  let bks = [ 16; 32; 64 ] in
  let warp_tiles = [ 16; 32; 64 ] in
  let smem_budget =
    (Gpu_sim.Machine.of_arch arch).Gpu_sim.Machine.smem_bytes_per_block
  in
  List.concat_map
    (fun bm ->
      List.concat_map
        (fun bn ->
          List.concat_map
            (fun bk ->
              List.concat_map
                (fun wm ->
                  List.filter_map
                    (fun wn ->
                      let ok =
                        m mod bm = 0 && n mod bn = 0 && k mod bk = 0
                        && bm mod wm = 0 && bn mod wn = 0
                        && wm mod 16 = 0
                        && (match arch with
                           | Arch.SM86 -> wn mod 8 = 0
                           | Arch.SM70 -> wn mod 16 = 0)
                        &&
                        let warps = bm / wm * (bn / wn) in
                        warps >= 1 && warps <= 8
                        &&
                        let nthreads = warps * 32 in
                        (* cooperative staging must divide evenly *)
                        let vecs t = t / 8 in
                        (vecs (bm * bk) mod nthreads = 0
                        || nthreads mod vecs (bm * bk) = 0)
                        && (vecs (bk * bn) mod nthreads = 0
                           || nthreads mod vecs (bk * bn) = 0)
                        && (bm * bk) + (bk * bn) <= smem_budget / 2
                      in
                      if ok then Some { base with Gemm.bm; bn; bk; wm; wn }
                      else None)
                    warp_tiles)
                warp_tiles)
            bks)
        tiles)
    tiles

let onoff b = if b then "on" else "off"

(* The GEMM decomposition space: every valid tile configuration crossed
   with swizzle on/off, vectorize on/off and pipeline depth. The proxy
   keeps 2x2 block tiles in m/n but 4 k-tiles, so a 3-stage pipeline
   reaches its steady state and the measured occupancy means
   something. *)
let gemm_space ?(epilogue = Kernels.Epilogue.none) arch ~m ~n ~k () =
  let enumerate () =
    let configs = gemm_configs arch ~m ~n ~k in
    let next = ref (-1) in
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun swizzle ->
            List.concat_map
              (fun vec ->
                List.map
                  (fun stages ->
                    incr next;
                    let cfg =
                      if swizzle then cfg
                      else { cfg with Gemm.swizzle_a = false; swizzle_b = false }
                    in
                    let build ~m ~n ~k =
                      Gemm.tensor_core arch cfg ~epilogue ~m ~n ~k ()
                    in
                    let pm = cfg.Gemm.bm * min 2 (m / cfg.Gemm.bm) in
                    let pn = cfg.Gemm.bn * min 2 (n / cfg.Gemm.bn) in
                    let pk = cfg.Gemm.bk * min 4 (k / cfg.Gemm.bk) in
                    { id = !next
                    ; knobs =
                        [ ("bm", string_of_int cfg.Gemm.bm)
                        ; ("bn", string_of_int cfg.Gemm.bn)
                        ; ("bk", string_of_int cfg.Gemm.bk)
                        ; ("wm", string_of_int cfg.Gemm.wm)
                        ; ("wn", string_of_int cfg.Gemm.wn)
                        ; ("swizzle", onoff swizzle)
                        ; ("vectorize", onoff vec)
                        ; ("stages", string_of_int stages)
                        ]
                    ; stages
                    ; vectorize = Some vec
                    ; legacy = swizzle && vec
                    ; build = memo (fun () -> build ~m ~n ~k)
                    ; proxy = memo (fun () -> build ~m:pm ~n:pn ~k:pk)
                    })
                  stages_space)
              [ true; false ])
          [ true; false ])
      configs
  in
  { space_name = "gemm"
  ; arch
  ; problem = Printf.sprintf "%dx%dx%d" m n k
  ; enumerate
  }

(* ----- the FMHA space ----- *)

(* Fused multi-head attention: KV chunk size, CTA width, shared-memory
   swizzle, vectorize and pipeline depth (the swpipe pass refuses the
   FMHA staging loop today — its K/V buffers escape into the softmax —
   so the stages axis exercises the refusal telemetry rather than the
   rewrite; the dedup then collapses the depths to one candidate). The
   proxy shrinks to one (batch, head) and two KV chunks. *)
let fmha_space ?(batch = 1) ?(heads = 1) arch ~seq ~dh () =
  let chunks = [ 16; 32; 64 ] in
  let cta_widths = [ 64; 128 ] in
  let enumerate () =
    let next = ref (-1) in
    List.concat_map
      (fun chunk ->
        List.concat_map
          (fun nthreads ->
            if not (Fmha.supports ~seq ~dh ~chunk ~nthreads) then []
            else
              List.concat_map
                (fun swizzle ->
                  List.concat_map
                    (fun vec ->
                      List.map
                        (fun stages ->
                          incr next;
                          let build ~batch ~heads ~seq =
                            Fmha.kernel ~swizzle_smem:swizzle arch ~batch
                              ~heads ~seq ~dh ~chunk ~nthreads ()
                          in
                          let pseq = min seq (2 * chunk) in
                          { id = !next
                          ; knobs =
                              [ ("chunk", string_of_int chunk)
                              ; ("nthreads", string_of_int nthreads)
                              ; ("swizzle", onoff swizzle)
                              ; ("vectorize", onoff vec)
                              ; ("stages", string_of_int stages)
                              ]
                          ; stages
                          ; vectorize = Some vec
                          ; legacy = swizzle && vec && stages = 1
                          ; build = memo (fun () -> build ~batch ~heads ~seq)
                          ; proxy =
                              memo (fun () -> build ~batch:1 ~heads:1 ~seq:pseq)
                          })
                        stages_space)
                    [ true; false ])
                [ true; false ])
          cta_widths)
      chunks
  in
  { space_name = "fmha"
  ; arch
  ; problem = Printf.sprintf "b%dh%ds%dd%d" batch heads seq dh
  ; enumerate
  }

(* ----- deterministic JSON + pretty-printing ----- *)

let jstr = Gpu_sim.Trace.json_string
let jf v = Printf.sprintf "%.6g" v

let jhist alist =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (jstr k) v) alist)
  ^ "}"

let jknobs knobs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (jstr k) (jstr v)) knobs)
  ^ "}"

let scored_json (s : scored) =
  Printf.sprintf
    "{\"id\":%d,\"knobs\":%s,\"stages\":%d,\"time_us\":%s,\"vec_width\":%s,\
     \"legacy\":%b}"
    s.cand.id (jknobs s.cand.knobs) s.eff_stages
    (jf (s.estimate.PM.time_s *. 1e6))
    (jf s.vec_width) s.cand.legacy

let simulated_json (s : simulated) =
  Printf.sprintf
    "{\"id\":%d,\"knobs\":%s,\"stages\":%d,\"model_us\":%s,\"refined_us\":%s,\
     \"occupancy\":%s,\"measured_vec_width\":%s,\"proxy_stages\":%d,\
     \"legacy\":%b}"
    s.sc.cand.id (jknobs s.sc.cand.knobs) s.sc.eff_stages
    (jf (s.sc.estimate.PM.time_s *. 1e6))
    (jf (s.refined.PM.time_s *. 1e6))
    (jf s.occupancy) (jf s.measured_vec) s.proxy_stages s.sc.cand.legacy

(* The search trajectory as JSON. Everything outside the ["wall"] group
   is deterministic per (space, seed, budget, proxy_top): the smoke
   aliases diff two same-seed runs with [~wall:false]. The tier-1
   ranking head is capped so the document stays readable; the counts
   above it describe the full frontier. *)
let to_json ?(wall = true) (o : outcome) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"space\":%s,\"arch\":%s,\"problem\":%s,\"exec_engine\":%s,\n\
        \"seed\":%d,\"budget\":%d,\"proxy_top\":%d,\n\
        \"enumerated\":%d,\"in_budget\":%d,\"scored\":%d,\"deduped\":%d,\
        \"dominated\":%d,\n"
       (jstr o.o_space)
       (jstr (Arch.name o.o_arch))
       (jstr o.o_problem) (jstr o.o_engine) o.o_seed o.o_budget o.o_proxy_top
       o.o_enumerated o.o_in_budget o.o_scored o.o_deduped o.o_dominated);
  Buffer.add_string b
    (Printf.sprintf
       "\"pruned\":%s,\n\"refusals\":{\"vectorize\":%s,\"swpipe\":%s},\n"
       (jhist o.o_pruned) (jhist o.o_vec_refusals) (jhist o.o_swpipe_refusals));
  Buffer.add_string b "\"tier1_top\":[";
  Buffer.add_string b
    (String.concat "," (List.map scored_json (take 16 o.o_ranking)));
  Buffer.add_string b "],\n\"proxy_simulated\":[";
  Buffer.add_string b
    (String.concat "," (List.map simulated_json o.o_simulated));
  Buffer.add_string b "],\n";
  (match o.o_baseline with
  | Some bl ->
    Buffer.add_string b
      (Printf.sprintf "\"fixed_sweep_baseline\":%s,\n" (simulated_json bl))
  | None -> Buffer.add_string b "\"fixed_sweep_baseline\":null,\n");
  (match o.o_winner with
  | Some w ->
    Buffer.add_string b
      (Printf.sprintf "\"winner\":%s,\n\"winner_beats_fixed_sweep\":%b,\n"
         (simulated_json w) (winner_beats_baseline o))
  | None ->
    Buffer.add_string b "\"winner\":null,\"winner_beats_fixed_sweep\":false,\n");
  Buffer.add_string b
    (Printf.sprintf "\"verify_rejected\":%d,\"verified\":%b" o.o_verify_rejected
       o.o_verified);
  if wall then
    Buffer.add_string b
      (Printf.sprintf
         ",\n\
          \"wall\":{\"tier1_s\":%s,\"tier2_s\":%s,\"tier3_s\":%s,\
          \"total_s\":%s}"
         (jf o.o_tier1_s) (jf o.o_tier2_s) (jf o.o_tier3_s)
         (jf (o.o_tier1_s +. o.o_tier2_s +. o.o_tier3_s)));
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp_knobs fmt knobs =
  Format.pp_print_string fmt
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) knobs))

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt
    "@[<v>search %s %s on %s: %d enumerated, %d in budget, %d scored (%d \
     duplicate, %d dominated)@,"
    o.o_space o.o_problem (Arch.name o.o_arch) o.o_enumerated o.o_in_budget
    o.o_scored o.o_deduped o.o_dominated;
  if o.o_pruned <> [] then
    Format.fprintf fmt "pruned: %s@,"
      (String.concat ", "
         (List.map (fun (r, c) -> Printf.sprintf "%s x%d" r c) o.o_pruned));
  List.iteri
    (fun i (s : scored) ->
      if i < 5 then
        Format.fprintf fmt "  t1 #%d: %a -> %.1f us@," (i + 1) pp_knobs
          s.cand.knobs
          (s.estimate.PM.time_s *. 1e6))
    o.o_ranking;
  List.iter
    (fun (s : simulated) ->
      Format.fprintf fmt
        "  proxy: %a -> %.1f us refined (model %.1f, occupancy %.2f, vec \
         %.1f)%s@,"
        pp_knobs s.sc.cand.knobs
        (s.refined.PM.time_s *. 1e6)
        (s.sc.estimate.PM.time_s *. 1e6)
        s.occupancy s.measured_vec
        (if s.sc.cand.legacy then " [fixed-sweep]" else ""))
    o.o_simulated;
  (match o.o_winner with
  | Some w ->
    Format.fprintf fmt "winner: %a -> %.1f us, %s@," pp_knobs w.sc.cand.knobs
      (w.refined.PM.time_s *. 1e6)
      (if o.o_verified then "verified bit-identical to run_tree"
       else "UNVERIFIED")
  | None -> Format.fprintf fmt "winner: none@,");
  (match o.o_baseline with
  | Some bl ->
    Format.fprintf fmt "fixed-sweep baseline: %.1f us refined -> search %s@,"
      (bl.refined.PM.time_s *. 1e6)
      (if winner_beats_baseline o then "wins" else "DOES NOT WIN")
  | None -> ());
  Format.fprintf fmt
    "wall: tier1 %.2fs (%d candidates), tier2 %.2fs (%d proxies), tier3 \
     %.2fs@]"
    o.o_tier1_s o.o_in_budget o.o_tier2_s
    (List.length o.o_simulated)
    o.o_tier3_s
