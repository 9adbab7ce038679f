(* Shared plumbing of the benchmark: the metric table, timing and
   statistics, the pinned environment, peak memory, and output checks
   against the CPU reference. *)

module Ref = Reference.Cpu_ref

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds the process has used: every domain's user and system
   time. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] with its wall and CPU seconds. *)
let time_cpu f =
  let w0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, now () -. w0, cpu_now () -. c0)

(* ----- statistics ----- *)

(* Linear-interpolation quantile, [q] in [0, 1]; 0 on an empty list. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ----- metrics -----

   The names, units and order here are the ones BENCHMARK.json declares;
   the wrapper script refuses a result whose metric set differs. Per-layer
   metrics a workload does not exercise keep their initial 0 (no calls
   into that layer were made). *)

let end_to_end = [ ("setup_s", "s"); ("ops_per_cpu_s", "1/s"); ("peak_rss_mb", "MB") ]

let layers =
  [ "serve"; "lower"; "kernels"; "gpu_sim.exec"; "gpu_sim.tree"
  ; "gpu_sim.pool"; "gpu_sim.model"; "tuner" ]

let short_layer l =
  match String.rindex_opt l '.' with
  | Some i -> String.sub l (i + 1) (String.length l - i - 1)
  | None -> l

let per_layer =
  [ ("serve.batches", "count"); ("serve.mean_batch_requests", "count")
  ; ("serve.plan_hit_rate", "ratio"); ("serve.self_s", "s")
  ; ("serve.sim_rps", "1/s"); ("serve.sim_latency_p50_s", "s")
  ; ("serve.sim_latency_p99_s", "s")
  ; ("lower.calls", "count"); ("lower.misses", "count")
  ; ("lower.hit_rate", "ratio"); ("lower.miss_p50_s", "s")
  ; ("lower.miss_p95_s", "s"); ("lower.hit_p50_s", "s")
  ; ("lower.total_s", "s")
  ; ("kernels.calls", "count"); ("kernels.build_s", "s")
  ; ("exec.calls", "count"); ("exec.total_s", "s"); ("exec.p50_s", "s")
  ; ("exec.p95_s", "s"); ("exec.ffn.cells_per_s", "cells/s")
  ; ("exec.attention.cells_per_s", "cells/s"); ("exec.ffn_share", "ratio")
  ; ("tree.calls", "count"); ("tree.total_s", "s"); ("pool.domains", "count")
  ; ("model.calls", "count"); ("model.total_s", "s") ]
  @ [ ("tune.tier1_s", "s"); ("tune.tier2_s", "s"); ("tune.tier3_s", "s")
    ; ("tune.candidates_per_s", "1/s"); ("tune.scored", "count")
    ; ("tune.dominated", "count"); ("tune.verified_ratio", "ratio")
    ; ("tune.proxy_distinct_ratio", "ratio")
    ; ("tune.gemm.winner_model_us", "us"); ("tune.fmha.winner_model_us", "us")
    ; ("gc.minor_words", "words"); ("gc.major_collections", "count")
    ; ("trace_overhead_s", "s"); ("trace.layer_cover", "ratio") ]
  @ List.map (fun l -> ("self." ^ short_layer l ^ "_s", "s")) layers

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)
let set_int name v = set name (float_of_int v)

(* ----- the detail record -----

   Everything besides the metrics that a result must carry — the
   environment, every seed, and the deterministic counts two runs of the
   same seed must reproduce exactly — printed as one JSON line before the
   result line. *)

let env_fields : (string * string) list ref = ref []
let exact_fields : (string * string) list ref = ref []
let note k v = env_fields := !env_fields @ [ (k, v) ]
let exact k v = exact_fields := !exact_fields @ [ (k, v) ]
let jstr = Gpu_sim.Trace.json_string
let jnum v = Printf.sprintf "%.17g" v
let jint = string_of_int

let jobj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (jstr k) v) fields)
  ^ "}"

(* ----- environment ----- *)

let pinned_vars =
  [ "GRAPHENE_SIM_DOMAINS"; "GRAPHENE_SIM_ENGINE"; "GRAPHENE_SWPIPE_STAGES"
  ; "GRAPHENE_NO_VECTORIZE" ]

(* The benchmark measures the program's defaults; any of these variables
   would silently change what is measured. *)
let refuse_overrides () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_vars with
  | [] -> ()
  | set ->
    prerr_endline
      ("perfbench: refusing to run with " ^ String.concat ", " set
     ^ " set; unset it to measure the program's defaults");
    exit 2

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let status_field name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.equal (String.sub l 0 i) name ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on (what [nproc] prints), from the
   affinity list in /proc/self/status, e.g. "0-1,4". *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> 0
  | Some s ->
    String.split_on_char ',' s
    |> List.fold_left
         (fun n r ->
           match String.split_on_char '-' (String.trim r) with
           | [ a; b ] -> n + (int_of_string b - int_of_string a + 1)
           | [ a ] when a <> "" -> n + 1
           | _ -> n)
         0

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> 0.0)
  | None -> 0.0

(* Spawn the global pool's workers (part of every workload's set-up). *)
let spawn_pool () =
  let pool = Gpu_sim.Domain_pool.global () in
  ignore
    (Gpu_sim.Domain_pool.run_list pool
       (List.init (Gpu_sim.Domain_pool.default_domains ()) (fun _ () -> ())))

(* Each timed iteration of serve-mixed and tune-search starts as a fresh
   process would: no plans cached and no garbage left over from the
   previous iteration to collect, so every iteration measures the same
   work. *)
let fresh () =
  Lower.Pipeline.cache_clear ();
  Gc.compact ()

let list_json f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

(* Run [iteration i] for i = 0, 1, ... until [seconds] have passed (at
   least twice). An iteration makes its timed calls and returns the ops
   they completed, their wall and CPU seconds, and the output check to
   run afterwards. The first iteration warms up (the heap grows to the
   workload's size) and is checked but not counted in the rate. Sets
   [ops_per_cpu_s] to the median over the other iterations, which keeps
   a disturbed iteration from moving the result. Throughput is per CPU
   second, not per wall second: on a small shared host a co-tenant that
   takes one of the pool's CPUs stretches the wall time of every
   parallel step but not the CPU time the program spends. The wall
   rates are recorded beside it. Sets [peak_rss_mb] to the process's
   peak right after the first iteration's timed calls, before its
   check: the memory a process that set up and did the work
   once needed. (Later iterations start from a heap the runtime has not
   given back, so their peaks are higher and vary with GC timing.) *)
let measure ?(prepare = ignore) ~seconds iteration =
  let t0 = now () in
  let rec go i rates =
    if i > 1 && now () -. t0 >= seconds then List.rev rates
    else begin
      prepare ();
      let ops, wall, cpu, check = iteration i in
      if i = 0 then set "peak_rss_mb" (peak_rss_mb ());
      check ();
      let per s = ratio (float_of_int ops) s in
      go (i + 1) ((per cpu, per wall) :: rates)
    end
  in
  let cpu_rates, wall_rates = List.split (go 0 []) in
  set "ops_per_cpu_s" (median (List.tl cpu_rates));
  note "iteration_ops_per_cpu_s" (list_json jnum cpu_rates);
  note "iteration_ops_per_wall_s" (list_json jnum wall_rates)

(* ----- output checks ----- *)

(* Attention over [heads] concatenated (seq x dh) slices. *)
let attention_ref ~heads ~seq ~dh q k v =
  let out = Array.make (heads * seq * dh) 0.0 in
  for h = 0 to heads - 1 do
    let off = h * seq * dh in
    let slice a = Array.sub a off (seq * dh) in
    let o = Array.make (seq * dh) 0.0 in
    Ref.attention ~seq ~dh (slice q) (slice k) (slice v) o;
    Array.blit o 0 out off (seq * dh)
  done;
  out

let gemm_ref ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  Ref.gemm_fp16_inputs ~m ~n ~k a b c;
  c

(* fp16 tolerances: the GEMM default, and the looser one the FMHA tests
   use (two chained fp16 GEMMs around a softmax). *)
let gemm_ok got want = Ref.allclose got want
let attention_ok got want = Ref.allclose ~rtol:4e-2 ~atol:2e-2 got want

(* Seeded fp16 argument buffers for a kernel's parameters: inputs random,
   [outputs] zeroed. With no outputs these are exactly the buffers
   [Tuner.Search.verify_plan] draws for the same seed. *)
let seeded_args ~seed ~outputs (kernel : Graphene.Spec.kernel) =
  List.mapi
    (fun i (p : Gpu_tensor.Tensor.t) ->
      let n = Shape.Layout.cosize p.Gpu_tensor.Tensor.layout in
      let name = p.Gpu_tensor.Tensor.name in
      ( name
      , if List.mem name outputs then Array.make n 0.0
        else Ref.random_fp16 ~seed:(seed + (31 * i) + 7) n ))
    kernel.Graphene.Spec.params

let copy_args args = List.map (fun (n, a) -> (n, Array.copy a)) args

(* Counters as a comparable value: every scalar field plus the
   instruction mix (the record's hash table is not structurally
   comparable). *)
let counters_key (c : Gpu_sim.Counters.t) =
  let open Gpu_sim.Counters in
  ( [ c.global_load_bytes; c.global_store_bytes; c.global_transactions
    ; c.shared_load_bytes; c.shared_store_bytes; c.shared_bank_conflicts
    ; c.flops; c.tensor_core_flops; c.instructions; c.global_requests
    ; c.global_vec_requests; c.global_vec_bytes; c.shared_requests
    ; c.shared_vec_requests; c.shared_vec_bytes ]
  , instr_mix_alist c )

let layer_spans layer = List.filter (fun (s : Span.t) -> String.equal s.Span.layer layer)

(* The per-layer call counts and timings every workload derives from its
   traced spans the same way. *)
let record_layer_metrics spans =
  let lower = layer_spans "lower" spans in
  let misses = List.filter (fun (s : Span.t) -> s.Span.kind = "miss") lower in
  let hits = List.filter (fun (s : Span.t) -> s.Span.kind = "hit") lower in
  set_int "lower.calls" (List.length lower);
  set_int "lower.misses" (List.length misses);
  set "lower.hit_rate"
    (ratio (float_of_int (List.length hits)) (float_of_int (List.length lower)));
  set "lower.miss_p50_s" (median (List.map Span.dur misses));
  set "lower.miss_p95_s" (quantile 0.95 (List.map Span.dur misses));
  set "lower.hit_p50_s" (median (List.map Span.dur hits));
  set "lower.total_s" (sum (List.map Span.dur lower));
  let kernels = layer_spans "kernels" spans in
  set_int "kernels.calls" (List.length kernels);
  set "kernels.build_s" (sum (List.map Span.dur kernels));
  let exec = layer_spans "gpu_sim.exec" spans in
  let execd = List.map Span.dur exec in
  set_int "exec.calls" (List.length exec);
  set "exec.total_s" (sum execd);
  set "exec.p50_s" (median execd);
  set "exec.p95_s" (quantile 0.95 execd);
  let tree = layer_spans "gpu_sim.tree" spans in
  set_int "tree.calls" (List.length tree);
  set "tree.total_s" (sum (List.map Span.dur tree));
  let model = layer_spans "gpu_sim.model" spans in
  set_int "model.calls" (List.length model);
  set "model.total_s" (sum (List.map Span.dur model))

(* The benchmark's own spans (the traced run's root and its grouping
   spans) belong to no layer; their self time is the benchmark's. *)
let bench_layer = "perfbench"

(* Write the trace file and record self times, their coverage of the
   traced wall, and the tracing overhead. *)
let finish_trace ~workload ~seed ~traced_wall ~untraced_wall spans =
  let self = Span.layer_self ~layers spans in
  List.iter (fun (l, s) -> set ("self." ^ short_layer l ^ "_s") s) self;
  (* The share of the traced wall some layer's span covers: everything
     else is the benchmark's own work between calls. *)
  let layered = List.filter (fun (s : Span.t) -> List.mem s.Span.layer layers) spans in
  set "trace.layer_cover"
    (ratio
       (Span.union_length (List.map (fun (s : Span.t) -> (s.Span.t0, s.Span.t1)) layered))
       traced_wall);
  set "trace_overhead_s" (traced_wall -. untraced_wall);
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir workload seed in
  let oc = open_out path in
  output_string oc
    (Span.to_chrome spans
       ~other:
         [ ("workload", jstr workload); ("seed", jint seed)
         ; ("traced_wall_s", jnum traced_wall)
         ; ("untraced_wall_s", jnum untraced_wall)
         ; ("layer_self_s", jobj (List.map (fun (l, s) -> (l, jnum s)) self))
         ; ("unattributed_s", jnum (traced_wall *. (1.0 -. get "trace.layer_cover"))) ]);
  close_out oc;
  note "trace_file" (jstr path)
