(** The tree-vs-plan oracle: the one comparison every bit-identity
    check goes through.

    The tree interpreter ({!Interp.run_tree}) is the executable reference
    semantics. A compiled plan is correct when, run on copies of the same
    input buffers, it reproduces the reference's output buffers bitwise
    and every counter of the contract ({!Counters.contract_diff}) —
    optionally also the profiler report and the Chrome trace. Schedule
    search (tier 3), the benchmark harness, the CLI's [simulate --check]
    and the test suites all call this module rather than comparing by
    hand. *)

(** What one run left behind. *)
type observation =
  { counters : Counters.t
  ; buffers : (string * float array) list  (** every argument, after *)
  ; report : string option  (** profiler-report JSON, with [~profile] *)
  ; trace : string option  (** Chrome trace, with [~profile] *)
  }

(** One way a run differs from its baseline. *)
type mismatch =
  | Counter of string * int * int
        (** a {!Counters.fields} name, the baseline's and the run's value *)
  | Buffer of string  (** an argument whose contents differ bitwise *)
  | Report
  | Trace

val mismatch_to_string : mismatch -> string

(** [diff ?ignore baseline run] — every mismatch of [run] against
    [baseline]: the counter fields of {!Counters.contract_diff} (or,
    given [ignore], of {!Counters.diff} [~ignore]), buffers by name,
    and the report and trace when both sides recorded them. [[]] means
    identical. *)
val diff : ?ignore:string list -> observation -> observation -> mismatch list

(** [check ~reference plan ~args runs] runs [reference] through
    {!Interp.run_tree} at 1 domain as the baseline, then [plan] at each
    [(engine, domains)] of [runs], every run on fresh copies of [args]
    (which stay untouched). Returns each run's observation and its
    {!diff} against the baseline, in [runs] order.

    The reference is the caller's: the source kernel when checking that
    a plan implements it, [plan.kernel] when checking a schedule (a
    pipelined plan's rewritten kernel). With [~profile] (default
    [false]) every run also records a profiler report (against
    [reference] on the plan's machine) and a Chrome trace, and those
    are compared too. Execution errors propagate. *)
val check :
  ?profile:bool ->
  ?ignore:string list ->
  ?scalars:(string * int) list ->
  reference:Graphene.Spec.kernel ->
  Lower.Plan.t ->
  args:(string * float array) list ->
  (Interp.engine * int) list ->
  ((Interp.engine * int) * observation * mismatch list) list
