(** Hardware-event counters recorded during simulated execution — the
    simulator's stand-in for the paper's Nsight-Compute measurements. *)

type t =
  { mutable global_load_bytes : int
  ; mutable global_store_bytes : int
  ; mutable global_transactions : int  (** 32-byte DRAM sectors touched *)
  ; mutable shared_load_bytes : int
  ; mutable shared_store_bytes : int
  ; mutable shared_bank_conflicts : int
        (** extra serialized shared-memory cycles beyond the conflict-free
            cost *)
  ; mutable flops : int
  ; mutable tensor_core_flops : int
  ; mutable instructions : int
  ; mutable global_requests : int
        (** warp-level memory-pipe requests to global memory: one per
            scalar index per warp batch, or per vector group when the
            access was widened *)
  ; mutable global_vec_requests : int
        (** the subset of [global_requests] issued at vector width > 1 *)
  ; mutable global_vec_bytes : int
        (** bytes moved by those vectorized global requests (summed over
            every participating thread of the warp) *)
  ; mutable global_vec_elems : int
        (** per-thread scalar elements moved by those vectorized global
            requests — [global_vec_elems / global_vec_requests] is the
            mean executed vector width *)
  ; mutable shared_requests : int
  ; mutable shared_vec_requests : int
  ; mutable shared_vec_bytes : int
  ; mutable shared_vec_elems : int
  ; mutable async_copies : int
        (** cp.async instances issued (deferred global→shared copies) *)
  ; mutable async_commits : int  (** cp.async.commit_group executions *)
  ; mutable async_waits : int  (** cp.async.wait_group executions *)
  ; mutable async_inflight_sum : int
        (** committed groups in flight, sampled at each wait before it
            drains — divide by [async_waits] for the mean queue depth *)
  ; mutable async_max_inflight : int
        (** peak committed groups in flight across the run (max-merged) *)
  ; instr_mix : (string, int) Hashtbl.t  (** per atomic-instruction counts *)
  }

val create : unit -> t

(** Zero every counter, including the instruction mix. *)
val reset : t -> unit

val add_instr : t -> string -> unit

(** [add_instr_n t name n] — count [n] issues of [name] in O(1), exactly
    equivalent to calling {!add_instr} [n] times. [n <= 0] is a no-op. *)
val add_instr_n : t -> string -> int -> unit

(** {1 Warp batches}

    Each takes the first [len] entries of a (reusable) address buffer —
    byte addresses of every participating thread of one
    warp-synchronous access — and allocates nothing. *)

(** Distinct 32-byte DRAM sectors touched by one batch — the pure
    computation behind {!record_global_batch}, exposed so the profiler
    can attach sector counts to trace events. *)
val sectors_of_batch : bytes:int -> int array -> len:int -> int

(** Extra serialized shared-memory cycles of one batch — the pure
    computation behind {!record_shared_batch}. *)
val conflicts_of_batch : bytes:int -> int array -> len:int -> int

(** One global access: books the bytes and the distinct 32-byte sectors
    touched, modelling coalescing. *)
val record_global_batch :
  t -> store:bool -> bytes:int -> int array -> len:int -> unit

(** One shared access: books the bytes and the bank-conflict degree —
    the maximum number of {e distinct} 4-byte words mapping to the same
    of 32 banks (a broadcast of the same word is free); degree-1
    accesses add nothing. *)
val record_shared_batch :
  t -> store:bool -> bytes:int -> int array -> len:int -> unit

(** [record_requests t ~global ~elems ~width ~bytes] — request accounting
    for one warp-per-view access of [elems] per-thread scalar elements
    executed at vector width [width]: books [ceil(elems / width)]
    requests ([width = 1] is the scalar baseline), and when [width > 1]
    additionally books them as vectorized requests carrying [bytes]
    total bytes across the warp. Purely additive next to the
    byte/sector/conflict accounting — widening never changes those
    counters. [elems <= 0] is a no-op. *)
val record_requests :
  t -> global:bool -> elems:int -> width:int -> bytes:int -> unit

(** [merge dst src] adds every counter of [src] into [dst], including the
    per-instruction mix. *)
val merge : t -> t -> unit

(** [merge_list parts] — a fresh counter holding the sum of [parts]
    (used to rebuild a whole run's totals from its per-domain pieces;
    all fields are commutative sums, so any order gives the same
    result). *)
val merge_list : t list -> t

(** Mean committed cp.async groups in flight at the wait points
    ([async_inflight_sum / async_waits]; 0 when no waits executed). *)
val async_mean_inflight : t -> float

(** [async_occupancy t ~stages] — {!async_mean_inflight} normalized by the
    pipeline depth: 1.0 in a steady [stages]-deep pipeline. *)
val async_occupancy : t -> stages:int -> float

(** Measured mean global access width in per-thread elements per request
    (1.0 = all scalar, 4.0 = all v4). The executed counterpart of
    {!Lower.Plan.global_vec_width}: proxy simulation feeds it back into
    the perf model's DRAM-efficiency term. *)
val global_mean_vec_width : t -> float

(** The instruction mix as an association list, sorted by instruction name
    (deterministic, for reports). *)
val instr_mix_alist : t -> (string * int) list

(** {1 Comparison}

    The tree interpreter is the oracle for every compiled plan; these
    name what a plan run may and may not differ from it in. *)

(** Every scalar counter by name (the record field names, in declaration
    order), followed by the instruction mix as ["instr_mix.<name>"]
    entries sorted by instruction name. *)
val fields : t -> (string * int) list

(** The request/vector-width group: a widened plan issues fewer, wider
    requests than the scalar tree walk. *)
val request_fields : string list

(** The four queue-depth counters ([async_commits], [async_waits],
    [async_inflight_sum], [async_max_inflight]): a software-pipelined
    plan moves them. [async_copies] is not among them — it is booked at
    issue, so pipelining never changes it. *)
val queue_fields : string list

(** [diff ?ignore a b] — every entry of {!fields} whose value differs
    between [a] and [b], as [(name, a's value, b's value)], in {!fields}
    order; names in [ignore] (default none) are skipped. An instruction
    in only one mix is reported with 0 on the other side. *)
val diff : ?ignore:string list -> t -> t -> (string * int * int) list

(** The tree ↔ plan contract: {!diff} over every field except
    {!request_fields} and {!queue_fields}. [[]] means the plan run
    reproduces the reference. *)
val contract_diff : t -> t -> (string * int * int) list

val pp : Format.formatter -> t -> unit
