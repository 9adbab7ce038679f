(* The repository benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the run measures the end-to-end metrics with tracing
   off; with [--trace 1] it makes the traced run and reports the
   per-layer metrics. The last line of standard output is the result
   object; the line before it records the environment, every seed and
   the deterministic counts. Exits 1 when any output check failed. See
   README.md. *)

open Common

let process_start = now ()
let workloads = [ "serve-mixed"; "tune-search" ]

let setup ~workload ~seed =
  match workload with
  | "serve-mixed" -> Serve_w.setup ~seed
  | _ -> Tune_w.setup ()

(* Set-up is timed from the moment before the process was started (the
   starter passes it as [--started-at]) to the first timed operation:
   process start, the pool's spawn, inputs, kernel builds and lowering.
   [setup_s] is the CPU time the process spent in that interval; its
   wall time is recorded beside it. On a small shared host the wall time
   mostly measures how long the scheduler keeps a starting process
   waiting: 10 ms in one run, 40 ms in the next. One run measures its
   own set-up and that of [setup_children] more fresh processes of the
   same workload, each of which only sets up, and reports the median. *)
let setup_children = 20

let child_setup ~workload ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only"
       ; "--started-at"; Printf.sprintf "%.6f" (now ()) |]
  in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim line)) with
  | Unix.WEXITED 0, [ cpu; wall ] -> (float_of_string cpu, float_of_string wall)
  | _ -> failwith "perfbench: a set-up process failed"

(* Set up; the set-up's CPU and wall seconds. *)
let timed_setup ~workload ~seed ~started_at =
  setup ~workload ~seed;
  (cpu_now (), now () -. started_at)

let run ~workload ~seed ~seconds ~trace ~started_at =
  let own = timed_setup ~workload ~seed ~started_at in
  let result =
    match (workload, trace) with
    | "serve-mixed", true -> Serve_w.traced ~seed
    | "serve-mixed", false -> Serve_w.timed ~seed ~seconds
    | _, true -> Tune_w.traced ~seed
    | _, false -> Tune_w.timed ~seed ~seconds
  in
  if not trace then begin
    let cpus, walls =
      List.split (own :: List.init setup_children (fun _ -> child_setup ~workload ~seed))
    in
    set "setup_s" (median cpus);
    note "setup_cpu_s" (list_json jnum cpus);
    note "setup_wall_s" (list_json jnum walls)
  end;
  result

let finite v = if Float.is_finite v then v else 0.0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false and started_at = ref process_start in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--started-at T]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads)
    ; ("--seed", Arg.Set_int seed, "N input seed")
    ; ("--seconds", Arg.Set_float seconds, "S measured run length")
    ; ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run")
    ; ("--started-at", Arg.Set_float started_at, "T Unix time just before this process started")
    ; ("--setup-only", Arg.Set setup_only, " only set up; print its CPU and wall seconds") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  refuse_overrides ();
  if !setup_only then begin
    let cpu, wall = timed_setup ~workload:!workload ~seed:!seed ~started_at:!started_at in
    Printf.printf "%.17g %.17g\n" cpu wall;
    exit 0
  end;
  let domains = Gpu_sim.Domain_pool.default_domains () in
  set_int "pool.domains" domains;
  let attempted, failed =
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~started_at:!started_at
  in
  let env =
    [ ("workload", jstr !workload); ("seed", jint !seed)
    ; ("seconds", jnum !seconds); ("trace", jint !trace)
    ; ("nproc", jint (nproc ()))
    ; ("recommended_domain_count", jint (Domain.recommended_domain_count ()))
    ; ("domains", jint domains)
    ; ("serve_shards", jint (Serve.Engine.default_config ()).Serve.Engine.shards)
    ; ("exec_engine",
       jstr (Gpu_sim.Interp.engine_name (Gpu_sim.Interp.default_plan_engine ())))
    ; ("ocaml", jstr Sys.ocaml_version) ]
    @ !env_fields
  in
  print_endline
    (jobj [ ("perfbench", jobj [ ("env", jobj env); ("exact", jobj !exact_fields) ]) ]);
  let metrics = if !trace = 1 then per_layer else end_to_end in
  print_endline
    (jobj
       [ ("correct", if failed = 0 && attempted > 0 then "true" else "false")
       ; ("attempted", jint attempted); ("failed", jint failed)
       ; ( "metrics"
         , jobj
             (List.map
                (fun (name, unit) ->
                  (name, jobj [ ("value", jnum (finite (get name))); ("unit", jstr unit) ]))
                metrics) ) ]);
  if failed > 0 || attempted = 0 then exit 1
