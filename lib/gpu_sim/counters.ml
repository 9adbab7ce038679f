type t =
  { mutable global_load_bytes : int
  ; mutable global_store_bytes : int
  ; mutable global_transactions : int
  ; mutable shared_load_bytes : int
  ; mutable shared_store_bytes : int
  ; mutable shared_bank_conflicts : int
  ; mutable flops : int
  ; mutable tensor_core_flops : int
  ; mutable instructions : int
  ; mutable global_requests : int
  ; mutable global_vec_requests : int
  ; mutable global_vec_bytes : int
  ; mutable global_vec_elems : int
  ; mutable shared_requests : int
  ; mutable shared_vec_requests : int
  ; mutable shared_vec_bytes : int
  ; mutable shared_vec_elems : int
  ; mutable async_copies : int
  ; mutable async_commits : int
  ; mutable async_waits : int
  ; mutable async_inflight_sum : int
  ; mutable async_max_inflight : int
  ; instr_mix : (string, int) Hashtbl.t
  }

let create () =
  { global_load_bytes = 0
  ; global_store_bytes = 0
  ; global_transactions = 0
  ; shared_load_bytes = 0
  ; shared_store_bytes = 0
  ; shared_bank_conflicts = 0
  ; flops = 0
  ; tensor_core_flops = 0
  ; instructions = 0
  ; global_requests = 0
  ; global_vec_requests = 0
  ; global_vec_bytes = 0
  ; global_vec_elems = 0
  ; shared_requests = 0
  ; shared_vec_requests = 0
  ; shared_vec_bytes = 0
  ; shared_vec_elems = 0
  ; async_copies = 0
  ; async_commits = 0
  ; async_waits = 0
  ; async_inflight_sum = 0
  ; async_max_inflight = 0
  ; instr_mix = Hashtbl.create 64
  }

let reset t =
  t.global_load_bytes <- 0;
  t.global_store_bytes <- 0;
  t.global_transactions <- 0;
  t.shared_load_bytes <- 0;
  t.shared_store_bytes <- 0;
  t.shared_bank_conflicts <- 0;
  t.flops <- 0;
  t.tensor_core_flops <- 0;
  t.instructions <- 0;
  t.global_requests <- 0;
  t.global_vec_requests <- 0;
  t.global_vec_bytes <- 0;
  t.global_vec_elems <- 0;
  t.shared_requests <- 0;
  t.shared_vec_requests <- 0;
  t.shared_vec_bytes <- 0;
  t.shared_vec_elems <- 0;
  t.async_copies <- 0;
  t.async_commits <- 0;
  t.async_waits <- 0;
  t.async_inflight_sum <- 0;
  t.async_max_inflight <- 0;
  Hashtbl.reset t.instr_mix

let add_instr t name =
  t.instructions <- t.instructions + 1;
  Hashtbl.replace t.instr_mix name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.instr_mix name))

let add_instr_n t name n =
  if n > 0 then begin
    t.instructions <- t.instructions + n;
    Hashtbl.replace t.instr_mix name
      (n + Option.value ~default:0 (Hashtbl.find_opt t.instr_mix name))
  end

(* Per-domain scratch for the batch counts below, which gather a batch
   into a reused int buffer, sort it in place and deduplicate it rather
   than allocate per warp batch. Buffers grow monotonically and are
   private to their domain, so parallel block ranges never share one. *)
let s_gather = Domain.DLS.new_key (fun () -> ref (Array.make 64 0))
let s_banks = Domain.DLS.new_key (fun () -> Array.make 32 0)

let gather_scratch n =
  let r = Domain.DLS.get s_gather in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

(* Insertion sort of [a.(0 .. n-1)]: warp batches hold at most a few
   dozen entries and usually arrive ascending (lanes ascending), where
   this is linear. *)
let sort_prefix (a : int array) n =
  for i = 1 to n - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Distinct 32-byte sectors across a batch, modelling coalescing. Both
   executors batch addresses into a reused scratch buffer of which the
   first [len] entries are live, so they share this one implementation
   and cannot drift.

   Each address touches the sector range [a/32, (a+bytes-1)/32]; both
   ends are monotone in [a], so after sorting the addresses the ranges
   are ordered by both ends and the union is one sweep: a range adds
   the sectors beyond the highest one counted so far. *)
let sectors_of_batch ~bytes addresses ~len =
  let a = gather_scratch len in
  Array.blit addresses 0 a 0 len;
  sort_prefix a len;
  let count = ref 0 and top = ref min_int in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get a i in
    let lo = x / 32 and hi = (x + bytes - 1) / 32 in
    if hi >= lo then begin
      if lo > !top then count := !count + (hi - lo + 1)
      else if hi > !top then count := !count + (hi - !top);
      if hi > !top then top := hi
    end
  done;
  !count

let record_global_batch t ~store ~bytes addresses ~len =
  let total = bytes * len in
  if store then t.global_store_bytes <- t.global_store_bytes + total
  else t.global_load_bytes <- t.global_load_bytes + total;
  t.global_transactions <-
    t.global_transactions + sectors_of_batch ~bytes addresses ~len

(* The hardware serves at most 128 bytes (32 banks x 4 bytes) per phase;
   wide per-thread accesses split into phases of 128/bytes threads. Bank
   conflicts are extra cycles within a phase: the maximum number of
   distinct 4-byte words mapping to one bank. Each phase gathers its
   words, sorts and deduplicates them, and counts the distinct words per
   bank. *)
let conflicts_of_batch ~bytes addresses ~len =
  let per_phase = max 1 (128 / max 1 bytes) in
  let banks = Domain.DLS.get s_banks in
  let acc = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + per_phase) in
    (* An access spans at most [bytes / 4 + 2] words. *)
    let words = gather_scratch ((stop - !i) * ((max 0 bytes / 4) + 2)) in
    let n = ref 0 in
    for j = !i to stop - 1 do
      let a = Array.unsafe_get addresses j in
      for w = a / 4 to (a + bytes - 1) / 4 do
        Array.unsafe_set words !n w;
        incr n
      done
    done;
    sort_prefix words !n;
    Array.fill banks 0 32 0;
    let degree = ref 1 in
    for j = 0 to !n - 1 do
      let w = Array.unsafe_get words j in
      if j = 0 || w <> Array.unsafe_get words (j - 1) then begin
        (* Bounds-checked: a negative word has a negative bank. *)
        let c = banks.(w mod 32) + 1 in
        banks.(w mod 32) <- c;
        if c > !degree then degree := c
      end
    done;
    acc := !acc + (!degree - 1);
    i := stop
  done;
  !acc

let record_shared_batch t ~store ~bytes addresses ~len =
  let total = bytes * len in
  if store then t.shared_store_bytes <- t.shared_store_bytes + total
  else t.shared_load_bytes <- t.shared_load_bytes + total;
  t.shared_bank_conflicts <-
    t.shared_bank_conflicts + conflicts_of_batch ~bytes addresses ~len

(* Memory-pipe requests issued for one warp-per-view access: [elems]
   per-thread scalar elements move as ceil(elems/width) instructions of
   [width] elements each. Width 1 is the scalar baseline; widened
   accesses additionally book the vectorized request count and the bytes
   they carried, so reports can state which fraction of the traffic rode
   wide transactions. Purely additive next to the byte/sector/conflict
   accounting above — widening never changes those. *)
let record_requests t ~global ~elems ~width ~bytes =
  if elems > 0 then begin
    let reqs = (elems + width - 1) / width in
    if global then begin
      t.global_requests <- t.global_requests + reqs;
      if width > 1 then begin
        t.global_vec_requests <- t.global_vec_requests + reqs;
        t.global_vec_bytes <- t.global_vec_bytes + bytes;
        t.global_vec_elems <- t.global_vec_elems + elems
      end
    end
    else begin
      t.shared_requests <- t.shared_requests + reqs;
      if width > 1 then begin
        t.shared_vec_requests <- t.shared_vec_requests + reqs;
        t.shared_vec_bytes <- t.shared_vec_bytes + bytes;
        t.shared_vec_elems <- t.shared_vec_elems + elems
      end
    end
  end

let merge dst src =
  dst.global_load_bytes <- dst.global_load_bytes + src.global_load_bytes;
  dst.global_store_bytes <- dst.global_store_bytes + src.global_store_bytes;
  dst.global_transactions <- dst.global_transactions + src.global_transactions;
  dst.shared_load_bytes <- dst.shared_load_bytes + src.shared_load_bytes;
  dst.shared_store_bytes <- dst.shared_store_bytes + src.shared_store_bytes;
  dst.shared_bank_conflicts <-
    dst.shared_bank_conflicts + src.shared_bank_conflicts;
  dst.flops <- dst.flops + src.flops;
  dst.tensor_core_flops <- dst.tensor_core_flops + src.tensor_core_flops;
  dst.instructions <- dst.instructions + src.instructions;
  dst.global_requests <- dst.global_requests + src.global_requests;
  dst.global_vec_requests <- dst.global_vec_requests + src.global_vec_requests;
  dst.global_vec_bytes <- dst.global_vec_bytes + src.global_vec_bytes;
  dst.global_vec_elems <- dst.global_vec_elems + src.global_vec_elems;
  dst.shared_requests <- dst.shared_requests + src.shared_requests;
  dst.shared_vec_requests <- dst.shared_vec_requests + src.shared_vec_requests;
  dst.shared_vec_bytes <- dst.shared_vec_bytes + src.shared_vec_bytes;
  dst.shared_vec_elems <- dst.shared_vec_elems + src.shared_vec_elems;
  dst.async_copies <- dst.async_copies + src.async_copies;
  dst.async_commits <- dst.async_commits + src.async_commits;
  dst.async_waits <- dst.async_waits + src.async_waits;
  dst.async_inflight_sum <- dst.async_inflight_sum + src.async_inflight_sum;
  dst.async_max_inflight <- max dst.async_max_inflight src.async_max_inflight;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace dst.instr_mix k
        (v + Option.value ~default:0 (Hashtbl.find_opt dst.instr_mix k)))
    src.instr_mix

(* Total merge: the counters of a whole run from its per-domain parts.
   All fields are sums, so the fold order cannot matter — but we fold in
   list order anyway, matching the ascending-block merge everywhere else. *)
let merge_list parts =
  let acc = create () in
  List.iter (merge acc) parts;
  acc

(* Mean committed groups in flight at the wait points. Each wait samples
   the queue depth before draining; in a steady N-stage pipeline every
   sample is N, so [async_mean_inflight / stages] = 1.0. *)
let async_mean_inflight t =
  if t.async_waits = 0 then 0.0
  else float_of_int t.async_inflight_sum /. float_of_int t.async_waits

let async_occupancy t ~stages =
  if stages <= 0 then 0.0 else async_mean_inflight t /. float_of_int stages

(* Measured mean global access width, in per-thread elements per request
   (1.0 = all scalar, 4.0 = all v4). Every scalar request carries one
   element; the vectorized requests carry [global_vec_elems] between
   them, booked at request time — byte counters won't do here, they sum
   over every thread of the warp, not per request. This is the executed
   counterpart of the plan's structural {!Lower.Plan.global_vec_width}:
   schedule search feeds it back into the perf model's DRAM-efficiency
   term after proxy simulation, replacing the static estimate with what
   the decomposition actually issued. *)
let global_mean_vec_width t =
  if t.global_requests = 0 then 1.0
  else begin
    let scalar = t.global_requests - t.global_vec_requests in
    float_of_int (scalar + t.global_vec_elems)
    /. float_of_int t.global_requests
  end

let instr_mix_alist t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.instr_mix []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every scalar counter by name, in declaration order, then the
   instruction mix as ["instr_mix.<name>"] entries sorted by name. *)
let fields t =
  [ ("global_load_bytes", t.global_load_bytes)
  ; ("global_store_bytes", t.global_store_bytes)
  ; ("global_transactions", t.global_transactions)
  ; ("shared_load_bytes", t.shared_load_bytes)
  ; ("shared_store_bytes", t.shared_store_bytes)
  ; ("shared_bank_conflicts", t.shared_bank_conflicts)
  ; ("flops", t.flops)
  ; ("tensor_core_flops", t.tensor_core_flops)
  ; ("instructions", t.instructions)
  ; ("global_requests", t.global_requests)
  ; ("global_vec_requests", t.global_vec_requests)
  ; ("global_vec_bytes", t.global_vec_bytes)
  ; ("global_vec_elems", t.global_vec_elems)
  ; ("shared_requests", t.shared_requests)
  ; ("shared_vec_requests", t.shared_vec_requests)
  ; ("shared_vec_bytes", t.shared_vec_bytes)
  ; ("shared_vec_elems", t.shared_vec_elems)
  ; ("async_copies", t.async_copies)
  ; ("async_commits", t.async_commits)
  ; ("async_waits", t.async_waits)
  ; ("async_inflight_sum", t.async_inflight_sum)
  ; ("async_max_inflight", t.async_max_inflight)
  ]
  @ List.map (fun (k, v) -> ("instr_mix." ^ k, v)) (instr_mix_alist t)

let request_fields =
  [ "global_requests"; "global_vec_requests"; "global_vec_bytes"
  ; "global_vec_elems"; "shared_requests"; "shared_vec_requests"
  ; "shared_vec_bytes"; "shared_vec_elems" ]

let queue_fields =
  [ "async_commits"; "async_waits"; "async_inflight_sum"; "async_max_inflight" ]

(* An instruction present in only one mix differs from the other side
   even at the same count, so presence is compared, not a 0 default. *)
let diff ?(ignore = []) a b =
  let fa = fields a and fb = fields b in
  let names =
    List.map fst fa
    @ List.filter_map
        (fun (n, _) -> if List.mem_assoc n fa then None else Some n)
        fb
  in
  List.filter_map
    (fun n ->
      if List.mem n ignore then None
      else
        match (List.assoc_opt n fa, List.assoc_opt n fb) with
        | Some x, Some y when x = y -> None
        | x, y ->
          Some (n, Option.value ~default:0 x, Option.value ~default:0 y))
    names

let contract_diff a b = diff ~ignore:(request_fields @ queue_fields) a b

let pp fmt t =
  Format.fprintf fmt
    "@[<v>global: %d B loaded, %d B stored, %d sectors@,\
     shared: %d B loaded, %d B stored, %d conflict cycles@,\
     flops: %d (%d tensor-core), %d instructions@,\
     requests: %d global (%d vectorized, %d B wide), %d shared (%d \
     vectorized, %d B wide)"
    t.global_load_bytes t.global_store_bytes t.global_transactions
    t.shared_load_bytes t.shared_store_bytes t.shared_bank_conflicts t.flops
    t.tensor_core_flops t.instructions t.global_requests
    t.global_vec_requests t.global_vec_bytes t.shared_requests
    t.shared_vec_requests t.shared_vec_bytes;
  if t.async_copies > 0 then
    Format.fprintf fmt
      "@,async copies: %d issued, %d commits, %d waits, mean in-flight \
       %.2f (max %d)"
      t.async_copies t.async_commits t.async_waits (async_mean_inflight t)
      t.async_max_inflight;
  Format.fprintf fmt "@]"
