(* Alcotest adapter for [Gpu_sim.Oracle], linked into every suite: a
   run that differs from its baseline fails the test case, naming every
   counter field, buffer, report or trace that diverged. *)

module O = Gpu_sim.Oracle

let fail_on name = function
  | [] -> ()
  | mismatches ->
    Alcotest.failf "%s: %s" name
      (String.concat "; " (List.map O.mismatch_to_string mismatches))

(* [Oracle.check] with every run held to the baseline; returns the runs'
   observations in [runs] order. *)
let run ?profile ?ignore ?scalars name ~reference plan ~args runs =
  List.map
    (fun ((engine, domains), observed, mismatches) ->
      fail_on
        (Printf.sprintf "%s: %s @ %d domains" name
           (Gpu_sim.Interp.engine_name engine)
           domains)
        mismatches;
      observed)
    (O.check ?profile ?ignore ?scalars ~reference plan ~args runs)

let check ?profile ?ignore ?scalars name ~reference plan ~args runs =
  let (_ : O.observation list) =
    run ?profile ?ignore ?scalars name ~reference plan ~args runs
  in
  ()

(* Two observations of the same computation outside the tree baseline
   (plan vs plan, batched vs solo). *)
let same ?ignore name a b = fail_on name (O.diff ?ignore a b)

let observed ?(buffers = []) counters =
  { O.counters; buffers; report = None; trace = None }

(* Counters alone, under the same [ignore] default as [Oracle.diff]. *)
let counters ?ignore name a b = same ?ignore name (observed a) (observed b)
