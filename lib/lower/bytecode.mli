(** A plan body's instruction format ({!Plan.bytecode}) and the builder
    the compile pass emits it through — the one form
    [Gpu_sim.Interp]'s executor dispatches over (see docs/LOWERING.md,
    "The bytecode form").

    Instruction layout (word offsets after the opcode; body lengths in
    code words, so bodies are [pc, pc+len) ranges):

    {v
    EXEC        0 | a_id
    LOOP        1 | slot lo hi step label body_len | <body>
    BRANCH      2 | cond then_len else_len | <then> <else>
    BRANCH_DIV  3 | cond depth then_len else_len | <then> <else>
    BARRIER     4 |
    FRAME       5 | label body_len | <body>
    FAIL        6 | fail
    COMMIT      7 |
    WAIT        8 | n
    v}

    [depth] is a divergent branch's static nesting level; the executor
    preallocates one taken/not-taken mask pair per level
    ([bc_max_depth] total), so divergence allocates nothing at run
    time. An empty else-branch is exactly [else_len = 0]. *)

val op_exec : int
val op_loop : int
val op_branch : int
val op_branch_div : int
val op_barrier : int
val op_frame : int
val op_fail : int

(** cp.async.commit_group / cp.async.wait_group (see docs/LOWERING.md,
    "The pipelining pass"). *)
val op_commit : int

val op_wait : int

(** {1 Builder}

    The compile pass emits a plan body in program order. Structured ops
    take their body as an emitting thunk; the builder patches the body
    length once the thunk returns and tracks divergent-branch nesting
    itself. *)

type builder

val builder : unit -> builder

(** Emit an [exec]. Atomics must arrive in [a_id] order (0, 1, ...), so
    [bc_atomics] is indexed by id and ordered as the code. *)
val exec : builder -> Plan.atomic -> unit

val loop :
  builder ->
  var:string ->
  slot:int ->
  lo:Expr_comp.cexpr ->
  hi:Expr_comp.cexpr ->
  step:Expr_comp.cexpr ->
  (unit -> unit) ->
  unit

(** [branch b ~divergent cond ~then_ ~else_]; a [divergent] (thread-
    dependent) branch gets the next mask-arena depth. *)
val branch :
  builder ->
  divergent:bool ->
  (int array -> bool) ->
  then_:(unit -> unit) ->
  else_:(unit -> unit) ->
  unit

val barrier : builder -> unit
val commit : builder -> unit
val wait : builder -> int -> unit
val frame : builder -> string -> (unit -> unit) -> unit

(** A lowering-time diagnosis that raises only if executed. *)
val fail : builder -> string -> unit

(** The finished body. *)
val finish : builder -> Plan.bytecode

(** {1 Summaries} (the [graphene lower] listing) *)

val opcode_name : int -> string

(** Instruction counts indexed by opcode (length 9). *)
val histogram : Plan.bytecode -> int array

val instruction_count : Plan.bytecode -> int

(** Bytes of run-time scratch the executor preallocates for this
    bytecode: the divergence mask arena, [2 * max_depth * warps * 8]. *)
val arena_bytes : cta_size:int -> Plan.bytecode -> int

(** One-line summary: instruction count, code words, arena bytes and
    opcode histogram (the view-tier histogram is in {!Plan.pp}'s
    header). *)
val summary : cta_size:int -> Plan.bytecode -> string

(** Full decoded listing, one line per instruction. *)
val listing : Plan.bytecode -> string
