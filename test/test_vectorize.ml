(* Tests for the vectorize pass and the wide-transaction memory engine:

   - view_cap legality corpus: contiguous, strided, misaligned, swizzled,
     symbolic and too-small views widen (or refuse) for the stated reason;
   - pass-level verdicts on lowered kernels: per-thread moves widen,
     collectives/non-moves/divergent leaves refuse, [?vectorize:false]
     forces every atomic scalar;
   - bit-identity: for every kernel family, the widened plan produces
     bit-identical outputs, byte/sector/conflict counters, instruction
     mix and profiler JSON to a scalar-forced plan (at 1 and 4 domains),
     and the scalar-forced plan matches the tree walk in ALL counters
     including the new request fields;
   - hand-computed request/sector accounting for 2-wide and 4-wide
     accesses (full warp, broadcast, partial mask);
   - the bank-conflict lint agrees with the executor's conflict model
     (no-drift pin of Vectorize.conflicts_of_addrs). *)

module E = Shape.Int_expr
module L = Shape.Layout
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module B = Graphene.Builder
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module V = Lower.Vectorize
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- view_cap legality corpus ----- *)

let view ?(mem = Ms.Global) ?(dt = Dt.FP16) ?swizzle ?offset name pairs =
  let layout = L.of_pairs pairs in
  let t = Ts.create ?swizzle name layout dt mem in
  match offset with
  | None -> t
  | Some o -> Ts.reinterpret t ~layout ~elem:(Ts.Scalar dt) ~offset:o

let check_cap name v expected =
  let got =
    match V.view_cap v with
    | Ok c ->
      Printf.sprintf "v%d%s" c.V.c_width
        (if c.V.c_full_span then " full-span" else "")
    | Error r -> "refused:" ^ V.reason_name r
  in
  check_str name expected got

let test_view_cap () =
  check_cap "contiguous 8xfp16" (view "a" [ (8, 1) ]) "v4 full-span";
  check_cap "contiguous 2xfp16" (view "a" [ (2, 1) ]) "v2 full-span";
  check_cap "contiguous 4xfp32" (view ~dt:Dt.FP32 "a" [ (4, 1) ])
    "v4 full-span";
  (* 4xfp64 = 32B exceeds the 16B transaction cap at w4; w2 fits. *)
  check_cap "fp64 width cap" (view ~dt:Dt.FP64 "a" [ (4, 1) ]) "v2 full-span";
  check_cap "strided" (view "a" [ (8, 2) ]) "refused:strided";
  (* Unit-stride run of 2 repeating at stride 4: v2 groups, not one span. *)
  check_cap "grouped runs" (view "a" [ (2, 1); (4, 4) ]) "v2";
  (* Size-1 dims are degenerate and must not break the prefix scan. *)
  check_cap "unit dims" (view "a" [ (1, 7); (8, 1); (1, 3) ]) "v4 full-span";
  check_cap "misaligned" (view ~offset:(E.const 1) "a" [ (8, 1) ])
    "refused:misaligned";
  (* A 4 B offset still spans the whole view contiguously, only the
     vector width drops. *)
  check_cap "half-aligned" (view ~offset:(E.const 2) "a" [ (8, 1) ])
    "v2 full-span";
  check_cap "symbolic offset" (view ~offset:(E.var "x") "a" [ (8, 1) ])
    "refused:misaligned";
  check_cap "provably aligned product"
    (view ~offset:(E.mul (E.var "x") (E.const 4)) "a" [ (8, 1) ])
    "v4 full-span";
  (* Register destinations have no byte-address alignment requirement. *)
  check_cap "register ignores alignment"
    (view ~mem:Ms.Register ~offset:(E.const 1) "a" [ (8, 1) ])
    "v4 full-span";
  check_cap "symbolic extent"
    (Ts.create "a" (L.row_major_e [ E.var "n" ]) Dt.FP16 Ms.Global)
    "refused:symbolic";
  check_cap "too small" (view "a" [ (1, 1) ]) "refused:too-small";
  (* A swizzle whose untouched low window covers the vector still widens
     (but is never one contiguous span); a window of one element refuses. *)
  check_cap "swizzled wide window"
    (view ~swizzle:(Sw.make ~bits:3 ~base:3 ~shift:3) "a" [ (8, 1) ])
    "v4";
  check_cap "swizzled narrow window"
    (view ~swizzle:(Sw.make ~bits:1 ~base:0 ~shift:3) "a" [ (8, 1) ])
    "refused:swizzled"

(* ----- verdicts on lowered kernels ----- *)

let gemm_tc arch =
  let cfg = Kernels.Gemm.test_config arch in
  let m, n = if arch = Arch.SM70 then (32, 32) else (64, 64) in
  Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m ~n
    ~k:32 ()

let verdict_counts plan =
  let widened = ref 0 and refusals = Hashtbl.create 8 in
  Array.iter
    (fun a ->
      match a.Plan.a_vec with
      | V.Widened _ -> incr widened
      | V.Refused r ->
        let k = V.reason_name r in
        Hashtbl.replace refusals k
          (1 + Option.value ~default:0 (Hashtbl.find_opt refusals k)))
    plan.Plan.body.Plan.bc_atomics;
  (!widened, fun r -> Option.value ~default:0 (Hashtbl.find_opt refusals r))

let test_gemm_verdicts () =
  let plan = Pipeline.lower ~vectorize:true Arch.SM86 (gemm_tc Arch.SM86) in
  check_bool "vec enabled" true plan.Plan.vec_enabled;
  let widened, moves = Plan.vec_counts plan.Plan.body in
  check_int "all per-thread moves widened" moves widened;
  check_bool "kernel has per-thread moves" true (moves > 0);
  let nwidened, refused = verdict_counts plan in
  check_int "widened atomics" widened nwidened;
  check_bool "collectives refused as collective" true
    (refused "collective" > 0);
  check_bool "per-thread init refused as not-a-move" true
    (refused "not-a-move" > 0);
  (* The staging moves ride the global->shared path at width 4, so the
     bytes-weighted mean global width must be well above scalar. *)
  match Plan.global_vec_width plan.Plan.body with
  | None -> Alcotest.fail "expected global move traffic"
  | Some w -> check_bool "mean global width > 2" true (w > 2.0)

(* One block of 32 threads, each owning 8 contiguous fp16 elements: an
   unpredicated round trip through registers, then the same moves again
   under a tid-dependent branch. The unpredicated pair must widen to v4;
   the predicated pair must refuse with the mask hazard, because a
   partially-active warp cannot be proven to issue full vectors. *)
let divergent_copy_kernel () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 32 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ 32 * 8 ] Dt.FP16 Ms.Global in
  let o = Ts.create_rm "O" [ 32 * 8 ] Dt.FP16 Ms.Global in
  let regs, alloc = B.alloc_regs "r" (L.row_major [ 8 ]) Dt.FP16 in
  let per t = Ts.select (Ts.tile t [ L.tile_spec 8 ]) [ tid ] in
  let round_trip =
    [ B.move ~threads:thr ~src:(per a) ~dst:regs ()
    ; B.move ~threads:thr ~src:regs ~dst:(per o) ()
    ]
  in
  B.kernel "divergent_copy" ~grid ~cta ~params:[ a; o ]
    ((alloc :: round_trip)
    @ [ B.if_ (B.( <. ) tid (E.const 16)) round_trip ])

let test_divergent_refusal () =
  let plan = Pipeline.lower ~vectorize:true Arch.SM86 (divergent_copy_kernel ()) in
  let widened, refused = verdict_counts plan in
  check_int "unpredicated moves widen" 2 widened;
  check_int "predicated moves refuse as divergent-mask" 2
    (refused "divergent-mask")

let test_disabled_lowering () =
  let plan = Pipeline.lower ~vectorize:false Arch.SM86 (gemm_tc Arch.SM86) in
  check_bool "vec disabled" false plan.Plan.vec_enabled;
  let widened, moves = Plan.vec_counts plan.Plan.body in
  check_int "nothing widened" 0 widened;
  check_bool "moves still counted" true (moves > 0);
  let _, refused = verdict_counts plan in
  check_bool "refusals say disabled" true (refused "disabled" >= moves);
  Array.iter
    (fun a ->
      check_int ("scalar width: " ^ a.Plan.a_label) 1 a.Plan.a_vec_width;
      check_bool ("no fastcopy: " ^ a.Plan.a_label) false a.Plan.a_fastcopy)
    plan.Plan.body.Plan.bc_atomics

(* ----- bit-identity: widened vs scalar-forced vs tree ----- *)

(* Run the scalar-forced and the widened plan against the tree walk with
   identical inputs. The scalar-forced plan must match the tree walk in
   EVERY field, requests included; the widened plan must match it (and
   the scalar plan) under the oracle's contract — outputs, counters,
   instruction mix, profiler JSON and trace — where only the request
   counters may (and, when anything widened memory traffic, must)
   differ. *)
let check_identity ?args ?(scalars = []) ?(domains = 1) name arch kernel =
  let args =
    match args with
    | Some a -> a
    | None ->
      List.mapi
        (fun i (p : Ts.t) ->
          (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
        kernel.Spec.params
  in
  let run ?ignore tag plan =
    List.hd
      (Oracle_check.run ~profile:true ?ignore ~scalars
         (Printf.sprintf "%s: %s plan vs tree" name tag)
         ~reference:kernel plan ~args
         [ (Interp.Bytecode, domains) ])
  in
  let scalar = run ~ignore:[] "scalar" (Pipeline.lower ~vectorize:false arch kernel) in
  let vplan = Pipeline.lower ~vectorize:true arch kernel in
  let widened = run "widened" vplan in
  Oracle_check.same (name ^ ": widened vs scalar plan") scalar widened;
  let sc = scalar.Gpu_sim.Oracle.counters
  and vc = widened.Gpu_sim.Oracle.counters in
  (* Widening can only reduce the request count, never the traffic. *)
  check_bool (name ^ ": fewer or equal global requests") true
    (vc.C.global_requests <= sc.C.global_requests);
  check_bool (name ^ ": fewer or equal shared requests") true
    (vc.C.shared_requests <= sc.C.shared_requests);
  check_int (name ^ ": scalar plan has no vectorized requests") 0
    (sc.C.global_vec_requests + sc.C.shared_vec_requests);
  let widened_moves, _ = Plan.vec_counts vplan.Plan.body in
  if widened_moves = 0 then
    Oracle_check.same ~ignore:[] (name ^ ": nothing widened") scalar widened

let families =
  [ ("gemm-tc sm86", Arch.SM86, (fun () -> gemm_tc Arch.SM86), None, [])
  ; ("gemm-tc sm70", Arch.SM70, (fun () -> gemm_tc Arch.SM70), None, [])
  ; ("divergent-copy", Arch.SM86, divergent_copy_kernel, None, [])
  ; ( "gemm-naive"
    , Arch.SM86
    , (fun () ->
        Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())
    , None
    , [] )
  ; ( "gemm-parametric"
    , Arch.SM86
    , (fun () ->
        Kernels.Gemm.naive_parametric ~launch_m:30 ~launch_n:20 ~bm:16 ~bn:16
          ~tm:4 ~tn:4 ())
      (* Symbolic param layouts cannot be sized statically: the buffers
         are sized from the scalar bindings by hand. *)
    , Some
        (fun () ->
          [ ("A", Ref.random_fp16 ~seed:14 (30 * 10))
          ; ("B", Ref.random_fp16 ~seed:15 (10 * 20))
          ; ("C", Array.make (30 * 20) 0.0)
          ])
    , [ ("M", 30); ("N", 20); ("K", 10) ] )
  ; ( "fmha sm86"
    , Arch.SM86
    , (fun () ->
        Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16
          ~chunk:16 ~nthreads:64 ())
    , None
    , [] )
  ; ( "fmha sm70"
    , Arch.SM70
    , (fun () ->
        Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
          ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())
    , None
    , [] )
  ; ( "lstm"
    , Arch.SM86
    , (fun () ->
        Kernels.Lstm.kernel Arch.SM86
          (Kernels.Gemm.test_config Arch.SM86)
          ~m:64 ~n:64 ~k:64 ())
    , None
    , [] )
  ; ( "mlp"
    , Arch.SM86
    , (fun () ->
        Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
          ~wn:32 ())
    , None
    , [] )
  ; ( "layernorm"
    , Arch.SM86
    , (fun () -> Kernels.Layernorm.kernel ~rows:2 ~cols:256 ~nthreads:64 ())
    , None
    , [] )
  ; ( "softmax"
    , Arch.SM86
    , (fun () -> Kernels.Softmax.kernel ~rows:2 ~cols:128 ~nthreads:64 ())
    , None
    , [] )
  ; ( "gemm+layernorm"
    , Arch.SM86
    , (fun () ->
        Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
          ~wm:32 ~wn:32 ())
    , None
    , [] )
  ]

let run_families ~domains =
  List.iter
    (fun (name, arch, mk, args, scalars) ->
      let args = Option.map (fun f -> f ()) args in
      check_identity ?args ~scalars ~domains name arch (mk ()))
    families

let test_identity_1domain () = run_families ~domains:1
let test_identity_4domains () = run_families ~domains:4

let test_widened_fraction_nonzero () =
  (* The acceptance rows: GEMM and FMHA must widen a nonzero fraction of
     their global ld/st traffic. *)
  List.iter
    (fun (name, arch, mk) ->
      let kernel = mk () in
      let plan = Pipeline.lower ~vectorize:true arch kernel in
      let args =
        List.map
          (fun (p : Ts.t) ->
            (p.Ts.name, Array.make (L.cosize p.Ts.layout) 0.0))
          kernel.Spec.params
      in
      let c = Interp.run_plan plan ~args () in
      check_bool (name ^ ": widened global requests") true
        (c.C.global_vec_requests > 0);
      check_bool (name ^ ": widened global bytes") true
        (c.C.global_vec_bytes > 0))
    [ ("gemm-tc sm86", Arch.SM86, fun () -> gemm_tc Arch.SM86)
    ; ( "fmha sm86"
      , Arch.SM86
      , fun () ->
          Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16
            ~chunk:16 ~nthreads:64 () )
    ]

(* ----- verdict pinning -----

   The layout-algebra refactor must not move a single verdict: this bakes
   an MD5 over every atomic's label, verdict, width, fastcopy flag,
   per-view verdicts and bank lint, for every kernel family. Any change to
   a vectorize verdict or refusal reason — even one that keeps the counts
   above intact — changes a digest here. *)

let verdict_fingerprint plan =
  let b = Buffer.create 4096 in
  Array.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|w%d|fc%b" a.Plan.a_label
           (V.verdict_to_string a.Plan.a_vec)
           a.Plan.a_vec_width a.Plan.a_fastcopy);
      List.iter
        (fun v -> Buffer.add_string b ("|i:" ^ V.verdict_to_string v.Plan.v_vec))
        a.Plan.a_ins;
      List.iter
        (fun v -> Buffer.add_string b ("|o:" ^ V.verdict_to_string v.Plan.v_vec))
        a.Plan.a_outs;
      List.iter
        (fun (n, c) -> Buffer.add_string b (Printf.sprintf "|bank:%s=%d" n c))
        a.Plan.a_banks;
      Buffer.add_char b '\n')
    plan.Plan.body.Plan.bc_atomics;
  Buffer.contents b

let pinned_verdicts =
  [ ("gemm-tc sm86", "11cee5f5804cb97d2823e40b3ada7f0f", 8)
  ; ("gemm-tc sm70", "4a1ca6ca39d1a23a15db41a651ed466d", 10)
  ; ("divergent-copy", "e82c1ce22e64f87ef2ccb88ee234bbe5", 4)
  ; ("gemm-naive", "30fb9b8e7f79f51502ee141f4c2f82c9", 1)
  ; ("gemm-parametric", "30fb9b8e7f79f51502ee141f4c2f82c9", 1)
  ; ("fmha sm86", "d55702d194f25e05a871e8806e0b5da6", 35)
  ; ("fmha sm70", "3d33313e2ece4165fff0a8ae6b71eca3", 41)
  ; ("lstm", "cc74c065246fa4a8cb9bed64e0b4aff2", 16)
  ; ("mlp", "d7e322ff1a746a1181665502c2af1ef7", 21)
  ; ("layernorm", "bb289be36af0d16a3acb0c63fbe62738", 48)
  ; ("softmax", "14a3421dd02ea66a6aaeeab6a1e3a5d2", 37)
  ; ("gemm+layernorm", "81ac08d6ead477574f7f4c5f99e0512c", 34)
  ]

let test_verdict_pin () =
  List.iter2
    (fun (name, arch, mk, _, _) (pname, digest, atomics) ->
      check_str "pin rows match families" name pname;
      let plan = Pipeline.lower ~vectorize:true arch (mk ()) in
      let fp = verdict_fingerprint plan in
      check_int (name ^ ": atomic count") atomics
        (List.length (String.split_on_char '\n' fp) - 1);
      check_str (name ^ ": verdict digest") digest
        (Digest.to_hex (Digest.string fp)))
    families pinned_verdicts

(* ----- hand-computed request and sector accounting ----- *)

let test_record_requests () =
  let c = C.create () in
  (* 8 fp16 elements per thread at width 4 across a full 32-lane warp:
     two v4 requests carrying 32 lanes x 16 B = 512 B. *)
  C.record_requests c ~global:true ~elems:8 ~width:4 ~bytes:512;
  check_int "v4: global_requests" 2 c.C.global_requests;
  check_int "v4: global_vec_requests" 2 c.C.global_vec_requests;
  check_int "v4: global_vec_bytes" 512 c.C.global_vec_bytes;
  check_int "v4: shared untouched" 0 c.C.shared_requests;
  (* The same access scalar: eight width-1 requests, nothing vectorized. *)
  C.record_requests c ~global:true ~elems:8 ~width:1 ~bytes:0;
  check_int "scalar: global_requests" 10 c.C.global_requests;
  check_int "scalar: vec unchanged" 2 c.C.global_vec_requests;
  (* Odd element count at width 2 rounds up: ceil(7/2) = 4 requests. *)
  C.record_requests c ~global:false ~elems:7 ~width:2 ~bytes:224;
  check_int "v2: shared_requests" 4 c.C.shared_requests;
  check_int "v2: shared_vec_requests" 4 c.C.shared_vec_requests;
  check_int "v2: shared_vec_bytes" 224 c.C.shared_vec_bytes;
  (* Empty batches record nothing. *)
  C.record_requests c ~global:false ~elems:0 ~width:4 ~bytes:99;
  check_int "empty: no-op" 4 c.C.shared_requests;
  (* merge and reset carry the new fields. *)
  let d = C.create () in
  C.merge d c;
  check_int "merge: global_requests" 10 d.C.global_requests;
  check_int "merge: shared_vec_bytes" 224 d.C.shared_vec_bytes;
  C.reset d;
  check_int "reset: global_requests" 0 d.C.global_requests;
  check_int "reset: shared_vec_requests" 0 d.C.shared_vec_requests

let test_widened_sectors () =
  (* 2-wide fp16 (4 B/thread), full warp, unit stride: 32 x 4 B = one
     128 B stretch = 4 sectors. *)
  check_int "v2 full warp" 4
    (C.sectors_of_batch ~bytes:4 (Array.init 32 (fun l -> l * 4)) ~len:32);
  (* 4-wide fp16 (8 B/thread), full warp: 256 B = 8 sectors. *)
  check_int "v4 full warp" 8
    (C.sectors_of_batch ~bytes:8 (Array.init 32 (fun l -> l * 8)) ~len:32);
  (* Broadcast: every lane reads the same 8 B vector inside one sector. *)
  check_int "v4 broadcast" 1
    (C.sectors_of_batch ~bytes:8 (Array.init 32 (fun _ -> 64)) ~len:32);
  (* Partial mask: 7 live lanes cover [0, 56) = 2 sectors. *)
  check_int "v4 partial mask" 2
    (C.sectors_of_batch ~bytes:8 (Array.init 7 (fun l -> l * 8)) ~len:7);
  (* The recording entry point books bytes * lanes and those sectors. *)
  let c = C.create () in
  C.record_global_batch c ~store:false ~bytes:8
    (Array.init 7 (fun l -> l * 8)) ~len:7;
  check_int "partial mask: load bytes" 56 c.C.global_load_bytes;
  check_int "partial mask: transactions" 2 c.C.global_transactions

(* ----- bank-conflict lint ----- *)

let test_conflicts_no_drift () =
  (* Deterministic pseudo-random address batches: the lint's conflict
     model must equal the executor's for every byte width. *)
  let seed = ref 12345 in
  let rand bound =
    seed := ((!seed * 1103515245) + 12721) land 0x3FFFFFFF;
    !seed mod bound
  in
  List.iter
    (fun bytes ->
      for len = 1 to 33 do
        let addrs = Array.init len (fun _ -> rand 4096 * 2) in
        check_int
          (Printf.sprintf "bytes %d len %d" bytes len)
          (C.conflicts_of_batch ~bytes addrs ~len)
          (V.conflicts_of_addrs ~bytes addrs)
      done)
    [ 2; 4; 8; 16 ]

let test_static_shared_conflicts () =
  (* One fp32 scalar per lane at element stride 32: every lane's word
     lands in bank 0, a 32-way conflict = 31 extra cycles per warp. *)
  let tidx = E.var "threadIdx.x" in
  let conflicted =
    view ~mem:Ms.Shared ~dt:Dt.FP32
      ~offset:(E.mul tidx (E.const 32))
      "s" [ (1, 1) ]
  in
  (match V.static_shared_conflicts ~cta_size:32 conflicted with
  | Some c -> check_int "32-way conflict" 31 c
  | None -> Alcotest.fail "expected a static verdict");
  (match V.static_shared_conflicts ~cta_size:64 conflicted with
  | Some c -> check_int "two warps" 62 c
  | None -> Alcotest.fail "expected a static verdict");
  (* Unit stride is conflict-free. *)
  (match
     V.static_shared_conflicts ~cta_size:32
       (view ~mem:Ms.Shared ~dt:Dt.FP32 ~offset:tidx "s" [ (1, 1) ])
   with
  | Some c -> check_int "conflict-free" 0 c
  | None -> Alcotest.fail "expected a static verdict");
  (* Global views and views with other free variables are not lintable. *)
  check_bool "global not linted" true
    (V.static_shared_conflicts ~cta_size:32 (view "g" [ (8, 1) ]) = None);
  check_bool "loop-dependent not linted" true
    (V.static_shared_conflicts ~cta_size:32
       (view ~mem:Ms.Shared ~offset:(E.var "kk") "s" [ (8, 1) ])
    = None)

let () =
  Alcotest.run "vectorize"
    [ ( "legality"
      , [ Alcotest.test_case "view_cap corpus" `Quick test_view_cap
        ; Alcotest.test_case "gemm-tc verdicts" `Quick test_gemm_verdicts
        ; Alcotest.test_case "divergent refusal" `Quick test_divergent_refusal
        ; Alcotest.test_case "disabled lowering" `Quick test_disabled_lowering
        ] )
    ; ( "bit_identity"
      , [ Alcotest.test_case "all families, 1 domain" `Quick
            test_identity_1domain
        ; Alcotest.test_case "all families, 4 domains" `Quick
            test_identity_4domains
        ; Alcotest.test_case "widened fraction nonzero" `Quick
            test_widened_fraction_nonzero
        ; Alcotest.test_case "verdict pinning" `Quick test_verdict_pin
        ] )
    ; ( "counters"
      , [ Alcotest.test_case "request accounting" `Quick test_record_requests
        ; Alcotest.test_case "widened sector accounting" `Quick
            test_widened_sectors
        ] )
    ; ( "bank_lint"
      , [ Alcotest.test_case "no drift vs executor" `Quick
            test_conflicts_no_drift
        ; Alcotest.test_case "static shared conflicts" `Quick
            test_static_shared_conflicts
        ] )
    ]
