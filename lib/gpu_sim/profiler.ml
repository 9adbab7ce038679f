module Spec = Graphene.Spec
module Arch = Graphene.Arch

(* ----- accumulation ----- *)

type acc_row =
  { key : string
  ; a_path : string
  ; a_kind : string
  ; a_instr : string
  ; mutable a_instances : int
  ; c : Counters.t
  }

type t =
  { rows : (string, acc_row) Hashtbl.t
  ; mutable order : acc_row list  (* newest first *)
  ; mutable stack : string list  (* innermost frame first *)
  ; mutable current : acc_row option
  ; mutable barriers : int
  ; trace_sink : Trace.t option
  ; detail : bool
  }

let create ?trace ?(detail = false) () =
  { rows = Hashtbl.create 64
  ; order = []
  ; stack = []
  ; current = None
  ; barriers = 0
  ; trace_sink = trace
  ; detail
  }

let trace p = p.trace_sink
let detail_trace p = if p.detail then p.trace_sink else None

(* New thread block: the scope stack and current-row cursor restart.
   Events themselves carry their block id explicitly (the [~block]
   arguments below), never ambient profiler state. *)
let begin_block p =
  p.stack <- [];
  p.current <- None

(* An empty profiler a domain can record its own block range into: fresh
   trace sink iff [p] has one, same detail flag. Merge back with
   {!merge_into} in ascending block order. *)
let fork p =
  create
    ?trace:(Option.map (fun _ -> Trace.create ()) p.trace_sink)
    ~detail:p.detail ()

(* Deterministic merge of a per-domain profiler recorded for the block
   range that sequentially follows everything already in [dst]: rows are
   folded in [src]'s first-issue order (so a row first issued in a later
   block lands exactly where the sequential run would have created it),
   and the trace sinks merge with the virtual-clock shift. *)
let merge_into dst src =
  List.iter
    (fun (src_row : acc_row) ->
      let row =
        match Hashtbl.find_opt dst.rows src_row.key with
        | Some r -> r
        | None ->
          let r =
            { key = src_row.key
            ; a_path = src_row.a_path
            ; a_kind = src_row.a_kind
            ; a_instr = src_row.a_instr
            ; a_instances = 0
            ; c = Counters.create ()
            }
          in
          Hashtbl.add dst.rows src_row.key r;
          dst.order <- r :: dst.order;
          r
      in
      row.a_instances <- row.a_instances + src_row.a_instances;
      Counters.merge row.c src_row.c)
    (List.rev src.order);
  dst.barriers <- dst.barriers + src.barriers;
  (match (dst.trace_sink, src.trace_sink) with
  | Some d, Some s -> Trace.merge_into d s
  | _ -> ())

let enter_frame p name = p.stack <- name :: p.stack

let exit_frame p =
  match p.stack with [] -> () | _ :: tl -> p.stack <- tl

let begin_atomic p ~label ~kind ~instr =
  let leaf = if String.length label > 0 then label else kind in
  let path = String.concat "/" (List.rev (leaf :: p.stack)) in
  let key = path ^ "#" ^ instr in
  let row =
    match Hashtbl.find_opt p.rows key with
    | Some r -> r
    | None ->
      let r =
        { key
        ; a_path = path
        ; a_kind = kind
        ; a_instr = instr
        ; a_instances = 0
        ; c = Counters.create ()
        }
      in
      Hashtbl.add p.rows key r;
      p.order <- r :: p.order;
      r
  in
  p.current <- Some row

let on_cost p ~instr ~tc ~flops ~instructions ~instances =
  match p.current with
  | None -> ()
  | Some r ->
    r.a_instances <- r.a_instances + instances;
    if tc then
      r.c.Counters.tensor_core_flops <-
        r.c.Counters.tensor_core_flops + (flops * instances)
    else r.c.Counters.flops <- r.c.Counters.flops + (flops * instances);
    r.c.Counters.instructions <-
      r.c.Counters.instructions + (instructions * instances) - instances;
    Counters.add_instr_n r.c instr instances

(* One warp-synchronous access batch over the first [len] entries of a
   reusable address buffer: the row counters get the same update as the
   run's totals, and the trace an instant event carrying the batch's
   bytes and sectors (global) or bank conflicts (shared). *)
let on_global_batch p ~block ~store ~bytes ~warp addresses ~len =
  (match p.current with
  | None -> ()
  | Some r -> Counters.record_global_batch r.c ~store ~bytes addresses ~len);
  Option.iter
    (fun tr ->
      let name =
        match p.current with Some r -> r.a_path | None -> "global access"
      in
      Trace.instant tr ~name ~cat:(if store then "global.store" else "global.load")
        ~pid:block ~tid:warp
        ~args:
          [ ("bytes", Trace.Int (bytes * len))
          ; ( "sectors"
            , Trace.Int (Counters.sectors_of_batch ~bytes addresses ~len) )
          ]
        ())
    p.trace_sink

let on_shared_batch p ~block ~store ~bytes ~warp addresses ~len =
  (match p.current with
  | None -> ()
  | Some r -> Counters.record_shared_batch r.c ~store ~bytes addresses ~len);
  Option.iter
    (fun tr ->
      let name =
        match p.current with Some r -> r.a_path | None -> "shared access"
      in
      Trace.instant tr ~name ~cat:(if store then "shared.store" else "shared.load")
        ~pid:block ~tid:warp
        ~args:
          [ ("bytes", Trace.Int (bytes * len))
          ; ( "bank_conflicts"
            , Trace.Int (Counters.conflicts_of_batch ~bytes addresses ~len) )
          ]
        ())
    p.trace_sink

let exec_event p ~block ~warp ~lanes ~dur =
  Option.iter
    (fun tr ->
      let name, instr =
        match p.current with
        | Some r -> (r.a_path, r.a_instr)
        | None -> ("exec", "?")
      in
      Trace.complete tr ~name ~cat:"exec" ~pid:block ~tid:warp ~dur
        ~args:[ ("instr", Trace.Str instr); ("lanes", Trace.Int lanes) ]
        ())
    p.trace_sink

let on_barrier p ~block =
  p.barriers <- p.barriers + 1;
  Option.iter
    (fun tr ->
      Trace.instant tr ~name:"__syncthreads" ~cat:"barrier" ~pid:block ~tid:0 ())
    p.trace_sink

(* ----- reports ----- *)

type row =
  { path : string
  ; kind : string
  ; instr : string
  ; instances : int
  ; instructions : int
  ; flops : int
  ; tc_flops : int
  ; global_load_bytes : int
  ; global_store_bytes : int
  ; global_sectors : int
  ; coalescing : float
  ; shared_load_bytes : int
  ; shared_store_bytes : int
  ; shared_bank_conflicts : int
  }

type report =
  { kernel : string
  ; arch : string
  ; grid_blocks : int
  ; cta_threads : int
  ; rows : row list
  ; totals : row
  ; barriers : int
  ; instr_mix : (string * int) list
  ; attributed_instructions : float
  ; attributed_bytes : float
  ; async_copies : int
  ; async_commits : int
  ; async_waits : int
  ; async_mean_inflight : float
  ; async_max_inflight : int
  ; estimate : Perf_model.estimate option
  ; bound : string
  ; arith_intensity : float
  }

let coalescing_of ~useful ~sectors =
  if sectors = 0 then 1.0
  else float_of_int useful /. (32.0 *. float_of_int sectors)

let row_of_counters ~path ~kind ~instr ~instances (c : Counters.t) =
  { path
  ; kind
  ; instr
  ; instances
  ; instructions = c.Counters.instructions
  ; flops = c.Counters.flops
  ; tc_flops = c.Counters.tensor_core_flops
  ; global_load_bytes = c.Counters.global_load_bytes
  ; global_store_bytes = c.Counters.global_store_bytes
  ; global_sectors = c.Counters.global_transactions
  ; coalescing =
      coalescing_of
        ~useful:(c.Counters.global_load_bytes + c.Counters.global_store_bytes)
        ~sectors:c.Counters.global_transactions
  ; shared_load_bytes = c.Counters.shared_load_bytes
  ; shared_store_bytes = c.Counters.shared_store_bytes
  ; shared_bank_conflicts = c.Counters.shared_bank_conflicts
  }

let row_bytes r =
  r.global_load_bytes + r.global_store_bytes + r.shared_load_bytes
  + r.shared_store_bytes

let fraction num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let report p ~kernel ~arch ~counters ?machine ?(scalars = []) () =
  let rows =
    List.rev_map
      (fun (r : acc_row) ->
        row_of_counters ~path:r.a_path ~kind:r.a_kind ~instr:r.a_instr
          ~instances:r.a_instances r.c)
      p.order
  in
  let totals =
    row_of_counters ~path:"total" ~kind:"" ~instr:"" ~instances:0 counters
  in
  let attributed_instructions =
    fraction
      (List.fold_left (fun a r -> a + r.instructions) 0 rows)
      totals.instructions
  in
  let attributed_bytes =
    fraction (List.fold_left (fun a r -> a + row_bytes r) 0 rows)
      (row_bytes totals)
  in
  let estimate =
    Option.map
      (fun m ->
        (* Occupancy inputs (smem, registers, parameter footprint) come
           from static analysis; the dynamic totals are the measured ones. *)
        let static =
          try Static_analysis.of_kernel arch kernel ~scalars ()
          with Failure _ ->
            { Static_analysis.zero with
              Static_analysis.blocks =
                Gpu_tensor.Thread_tensor.size kernel.Spec.grid
            ; threads_per_block = Gpu_tensor.Thread_tensor.size kernel.Spec.cta
            }
        in
        Perf_model.of_totals m
          { static with
            Static_analysis.tc_flops = float_of_int totals.tc_flops
          ; fma_flops = float_of_int totals.flops
          ; global_bytes =
              float_of_int (totals.global_load_bytes + totals.global_store_bytes)
          ; shared_bytes =
              float_of_int (totals.shared_load_bytes + totals.shared_store_bytes)
          ; instructions = float_of_int totals.instructions
          })
      machine
  in
  let bound =
    match estimate with
    | None -> "n/a"
    | Some e ->
      if e.Perf_model.launch_s > e.Perf_model.exec_s then "launch"
      else if
        e.Perf_model.compute_s >= e.Perf_model.dram_s
        && e.Perf_model.compute_s >= e.Perf_model.smem_s
      then "compute"
      else if e.Perf_model.dram_s >= e.Perf_model.smem_s then "dram"
      else "smem"
  in
  let global = totals.global_load_bytes + totals.global_store_bytes in
  let arith_intensity =
    if global = 0 then 0.0
    else float_of_int (totals.flops + totals.tc_flops) /. float_of_int global
  in
  { kernel = kernel.Spec.name
  ; arch = Arch.name arch
  ; grid_blocks = Gpu_tensor.Thread_tensor.size kernel.Spec.grid
  ; cta_threads = Gpu_tensor.Thread_tensor.size kernel.Spec.cta
  ; rows
  ; totals
  ; barriers = p.barriers
  ; instr_mix = Counters.instr_mix_alist counters
  ; attributed_instructions
  ; attributed_bytes
  ; async_copies = counters.Counters.async_copies
  ; async_commits = counters.Counters.async_commits
  ; async_waits = counters.Counters.async_waits
  ; async_mean_inflight = Counters.async_mean_inflight counters
  ; async_max_inflight = counters.Counters.async_max_inflight
  ; estimate
  ; bound
  ; arith_intensity
  }

(* ----- JSON ----- *)

let jstr = Trace.json_string
let jflt f = Printf.sprintf "%.6g" f

let row_fields r =
  [ ("path", jstr r.path)
  ; ("kind", jstr r.kind)
  ; ("instr", jstr r.instr)
  ; ("instances", string_of_int r.instances)
  ; ("instructions", string_of_int r.instructions)
  ; ("flops", string_of_int r.flops)
  ; ("tc_flops", string_of_int r.tc_flops)
  ; ("global_load_bytes", string_of_int r.global_load_bytes)
  ; ("global_store_bytes", string_of_int r.global_store_bytes)
  ; ("global_sectors", string_of_int r.global_sectors)
  ; ("coalescing_efficiency", jflt r.coalescing)
  ; ("shared_load_bytes", string_of_int r.shared_load_bytes)
  ; ("shared_store_bytes", string_of_int r.shared_store_bytes)
  ; ("shared_bank_conflicts", string_of_int r.shared_bank_conflicts)
  ]

let obj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (jstr k);
      Buffer.add_char b ':';
      Buffer.add_string b v)
    fields;
  Buffer.add_char b '}'

let report_to_json rep =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"graphene.profile.v1\"";
  Buffer.add_string b (Printf.sprintf ",\n\"kernel\":%s" (jstr rep.kernel));
  Buffer.add_string b (Printf.sprintf ",\n\"arch\":%s" (jstr rep.arch));
  Buffer.add_string b (Printf.sprintf ",\n\"grid_blocks\":%d" rep.grid_blocks);
  Buffer.add_string b (Printf.sprintf ",\n\"cta_threads\":%d" rep.cta_threads);
  Buffer.add_string b ",\n\"specs\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n";
      obj b (row_fields r))
    rep.rows;
  Buffer.add_string b "],\n\"totals\":";
  obj b (row_fields rep.totals);
  Buffer.add_string b (Printf.sprintf ",\n\"barriers\":%d" rep.barriers);
  Buffer.add_string b ",\n\"attribution\":";
  obj b
    [ ("instructions", jflt rep.attributed_instructions)
    ; ("bytes", jflt rep.attributed_bytes)
    ];
  Buffer.add_string b ",\n\"instr_mix\":";
  obj b (List.map (fun (k, v) -> (k, string_of_int v)) rep.instr_mix);
  Buffer.add_string b ",\n\"copy_queue\":";
  obj b
    [ ("async_copies", string_of_int rep.async_copies)
    ; ("async_commits", string_of_int rep.async_commits)
    ; ("async_waits", string_of_int rep.async_waits)
    ; ("mean_inflight_groups", jflt rep.async_mean_inflight)
    ; ("max_inflight_groups", string_of_int rep.async_max_inflight)
    ];
  (match rep.estimate with
  | None -> ()
  | Some e ->
    Buffer.add_string b ",\n\"roofline\":";
    obj b
      [ ("bound", jstr rep.bound)
      ; ("arith_intensity_flops_per_byte", jflt rep.arith_intensity)
      ; ("time_us", jflt (e.Perf_model.time_s *. 1e6))
      ; ("exec_us", jflt (e.Perf_model.exec_s *. 1e6))
      ; ("launch_us", jflt (e.Perf_model.launch_s *. 1e6))
      ; ("compute_us", jflt (e.Perf_model.compute_s *. 1e6))
      ; ("dram_us", jflt (e.Perf_model.dram_s *. 1e6))
      ; ("smem_us", jflt (e.Perf_model.smem_s *. 1e6))
      ; ("tc_utilization", jflt e.Perf_model.tc_util)
      ; ("dram_utilization", jflt e.Perf_model.dram_util)
      ]);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ----- pretty-printing ----- *)

let pp_report fmt rep =
  let path_w =
    List.fold_left (fun w r -> max w (String.length r.path)) 24 rep.rows
  in
  Format.fprintf fmt "@[<v>kernel %s on %s: %d block%s x %d threads@,@,"
    rep.kernel rep.arch rep.grid_blocks
    (if rep.grid_blocks = 1 then "" else "s")
    rep.cta_threads;
  Format.fprintf fmt "%-*s  %-16s %6s %8s %9s %9s %6s %5s %9s %5s@," path_w
    "spec (scope path)" "instr" "inst" "instrs" "flops" "gl.bytes" "sect"
    "coal" "sh.bytes" "cnfl";
  let line r =
    Format.fprintf fmt "%-*s  %-16s %6d %8d %9d %9d %6d %4.0f%% %9d %5d@,"
      path_w r.path r.instr r.instances r.instructions
      (r.flops + r.tc_flops)
      (r.global_load_bytes + r.global_store_bytes)
      r.global_sectors
      (100.0 *. r.coalescing)
      (r.shared_load_bytes + r.shared_store_bytes)
      r.shared_bank_conflicts
  in
  List.iter line rep.rows;
  line { rep.totals with path = "TOTAL" };
  Format.fprintf fmt "@,barriers: %d | attribution: %.1f%% of instructions, %.1f%% of bytes@,"
    rep.barriers
    (100.0 *. rep.attributed_instructions)
    (100.0 *. rep.attributed_bytes);
  Format.fprintf fmt "instr mix: %s@,"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s x%d" k v) rep.instr_mix));
  if rep.async_copies > 0 then
    Format.fprintf fmt
      "copy queue: %d cp.async, %d commits, %d waits | in-flight groups: \
       %.2f mean, %d max@,"
      rep.async_copies rep.async_commits rep.async_waits
      rep.async_mean_inflight rep.async_max_inflight;
  (match rep.estimate with
  | None -> ()
  | Some e ->
    Format.fprintf fmt
      "roofline: %s-bound | AI %.2f flop/B | est %.1f us (compute %.1f, dram \
       %.1f, smem %.1f, launch %.1f) | TC %.0f%%, DRAM %.0f%%@,"
      rep.bound rep.arith_intensity
      (e.Perf_model.time_s *. 1e6)
      (e.Perf_model.compute_s *. 1e6)
      (e.Perf_model.dram_s *. 1e6)
      (e.Perf_model.smem_s *. 1e6)
      (e.Perf_model.launch_s *. 1e6)
      (100.0 *. e.Perf_model.tc_util)
      (100.0 *. e.Perf_model.dram_util));
  Format.fprintf fmt "@]"
