(* Randomized (fixed-seed) property test for thread-divergent control
   flow in the warp-mask plan executor:

   - a corpus of generated kernels nesting tid-dependent [if]/[if-else]
     branches and loops (with loop-dependent store indices) must run
     bit-identically — counters, instruction mix, profiler report JSON,
     Chrome trace, output buffers — through [Interp.run_plan] at 1 and
     4 domains and through the tree-walking reference;
   - the plan invariant that every collective atomic carries a compiled
     member function: a plan doctored to violate it must raise
     [Interp.Exec_error], never fall through silently. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Interp = Gpu_sim.Interp
module Plan = Lower.Plan
module Pipeline = Lower.Pipeline

let check_bool = Alcotest.(check bool)

(* ----- generated divergence corpus ----- *)

let cta_size = 64
let grid_blocks = 2

(* One generated kernel: a CTA of 64 threads over 2 blocks, random
   nesting (depth <= 3) of tid-dependent branches and small loops, every
   leaf a per-thread store into the block's own slice of [A]. Loop
   bodies sometimes store through a loop-dependent index, so the
   executor's Loop-tier view caches are exercised alongside Thread-tier
   ones. *)
let gen_kernel rng idx =
  let grid = Tt.grid "g" [ grid_blocks ] in
  let cta = Tt.linear "cta" cta_size Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ grid_blocks * cta_size ] Dt.FP32 Ms.Global in
  let block_base = E.mul B.block_idx (E.const cta_size) in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let value () = float_of_int (1 + Random.State.int rng 9) in
  (* Store to the thread's own cell, optionally rotated by a loop
     variable (stays inside the block's 64-cell slice, so parallel
     block ranges never race). *)
  let leaf ?rot () =
    let cell =
      match rot with
      | None -> E.add block_base tid
      | Some kv ->
        E.add block_base (E.rem (E.add tid kv) (E.const cta_size))
    in
    B.init ~threads:thr (value ()) ~dst:(Ts.select a [ cell ]) ()
  in
  let cond () =
    match Random.State.int rng 4 with
    | 0 -> B.( <. ) tid (E.const (1 + Random.State.int rng (cta_size - 1)))
    | 1 ->
      B.( ==. )
        (E.rem tid (E.const (2 + Random.State.int rng 6)))
        E.zero
    | 2 -> B.( <=. ) (E.const (Random.State.int rng cta_size)) tid
    | _ ->
      B.( &&. )
        (B.( <. ) tid (E.const (8 + Random.State.int rng 48)))
        (B.( ==. ) (E.rem tid (E.const 2)) E.zero)
  in
  let rec block depth rot =
    List.init
      (1 + Random.State.int rng 2)
      (fun _ -> stmt depth rot)
  and stmt depth rot =
    match (if depth >= 3 then 0 else Random.State.int rng 5) with
    | 0 | 4 -> leaf ?rot ()
    | 1 -> B.if_ (cond ()) (block (depth + 1) rot)
    | 2 -> B.if_else (cond ()) (block (depth + 1) rot) (block (depth + 1) rot)
    | _ ->
      B.for_ (fresh "k")
        (E.const (1 + Random.State.int rng 3))
        (fun kv -> block (depth + 1) (Some kv))
  in
  B.kernel
    (Printf.sprintf "divergence_%d" idx)
    ~grid ~cta ~params:[ a ]
    (block 0 None @ [ leaf () ])

let par_domains = 4

(* Tree at 1 domain is the baseline; the plan path must match it
   bit-for-bit at 1 and [par_domains] domains. *)
let check_kernel name plan kernel =
  Oracle_check.check ~profile:true name ~reference:kernel plan
    ~args:[ ("A", Array.make (grid_blocks * cta_size) 0.0) ]
    [ (Interp.Bytecode, 1); (Interp.Bytecode, par_domains) ]

let test_divergence_corpus () =
  let rng = Random.State.make [| 0x9e3779b9; 42 |] in
  let saw_divergence = ref false in
  for idx = 0 to 11 do
    let kernel = gen_kernel rng idx in
    let plan = Pipeline.lower Arch.SM86 kernel in
    if plan.Plan.body.Plan.bc_max_depth > 0 then saw_divergence := true;
    check_kernel kernel.Spec.name plan kernel
  done;
  (* The corpus must actually exercise the executor's mask arena. *)
  check_bool "corpus contains divergent kernels" true !saw_divergence

(* ----- collective plan invariant ----- *)

(* A collective atomic whose compiled member function has been stripped
   must raise a plan-invariant Exec_error — the executor has no symbolic
   fallback for members, and silently skipping the group would corrupt
   counters and buffers. *)
let test_collective_without_members_raises () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 32 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp = Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.zero ] in
  let inp = Ts.create_rm "In" [ 32 ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ 32 ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  let kernel =
    B.kernel "bcast" ~grid ~cta ~params:[ inp; out ]
      [ al_v
      ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
      ; B.shfl ~threads:warp (Spec.Idx (E.const 5)) ~src:v ~dst:v ()
      ; B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) ()
      ]
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let stripped = ref 0 in
  let strip (a : Plan.atomic) =
    if a.Plan.a_members = None then a
    else begin
      incr stripped;
      { a with Plan.a_members = None }
    end
  in
  let bc = plan.Plan.body in
  let broken =
    { plan with
      Plan.body =
        { bc with Plan.bc_atomics = Array.map strip bc.Plan.bc_atomics }
    }
  in
  check_bool "stripped a collective" true (!stripped > 0);
  let args () =
    [ ("In", Array.init 32 float_of_int); ("Out", Array.make 32 0.0) ]
  in
  (* Sanity: the intact plan runs. *)
  ignore (Interp.run_plan plan ~args:(args ()) ());
  check_bool "stripped collective raises plan-invariant Exec_error" true
    (try
       ignore (Interp.run_plan broken ~args:(args ()) ());
       false
     with Interp.Exec_error msg ->
       let has sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length msg
           && (String.equal (String.sub msg i n) sub || go (i + 1))
         in
         go 0
       in
       has "no compiled member function" && has "plan invariant")

let () =
  Alcotest.run "divergence"
    [ ( "divergence"
      , [ Alcotest.test_case "randomized tid-dependent branch corpus" `Quick
            test_divergence_corpus
        ; Alcotest.test_case "collective without members raises" `Quick
            test_collective_without_members_raises
        ] )
    ]
