type observation =
  { counters : Counters.t
  ; buffers : (string * float array) list
  ; report : string option
  ; trace : string option
  }

type mismatch =
  | Counter of string * int * int
  | Buffer of string
  | Report
  | Trace

let mismatch_to_string = function
  | Counter (f, x, y) -> Printf.sprintf "counter %s: %d vs %d" f x y
  | Buffer n -> "buffer " ^ n
  | Report -> "profiler report"
  | Trace -> "chrome trace"

(* Buffers match by name; one present on a single side differs. The
   comparison is OCaml's structural [=], as every check has always used
   (a NaN never equals itself, so a NaN output is a mismatch). *)
let diff ?ignore a b =
  let counters =
    List.map
      (fun (f, x, y) -> Counter (f, x, y))
      (match ignore with
      | None -> Counters.contract_diff a.counters b.counters
      | Some ignore -> Counters.diff ~ignore a.counters b.counters)
  in
  let names =
    List.map fst a.buffers
    @ List.filter
        (fun n -> not (List.mem_assoc n a.buffers))
        (List.map fst b.buffers)
  in
  let buffers =
    List.filter_map
      (fun n ->
        match (List.assoc_opt n a.buffers, List.assoc_opt n b.buffers) with
        | Some x, Some y when x = y -> None
        | _ -> Some (Buffer n))
      names
  in
  let text m x y =
    match (x, y) with
    | Some x, Some y when not (String.equal x y) -> [ m ]
    | _ -> []
  in
  counters @ buffers @ text Report a.report b.report @ text Trace a.trace b.trace

let check ?(profile = false) ?ignore ?scalars ~reference (plan : Lower.Plan.t)
    ~args runs =
  let arch = plan.Lower.Plan.arch in
  let observe run =
    let buffers = List.map (fun (n, a) -> (n, Array.copy a)) args in
    if not profile then
      { counters = run None buffers; buffers; report = None; trace = None }
    else begin
      let trace = Trace.create () in
      let profiler = Profiler.create ~trace () in
      let counters = run (Some profiler) buffers in
      let report =
        Profiler.report profiler ~kernel:reference ~arch ~counters
          ~machine:(Machine.of_arch arch) ()
      in
      { counters
      ; buffers
      ; report = Some (Profiler.report_to_json report)
      ; trace = Some (Trace.to_chrome_string trace)
      }
    end
  in
  let baseline =
    observe (fun profiler args ->
        Interp.run_tree ~arch ?profiler ~domains:1 reference ~args ?scalars ())
  in
  List.map
    (fun (engine, domains) ->
      let o =
        observe (fun profiler args ->
            Interp.run_plan ?profiler ~domains ~engine plan ~args ?scalars ())
      in
      ((engine, domains), o, diff ?ignore baseline o))
    runs
