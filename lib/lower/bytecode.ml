(* The plan body's instruction format and its builder.

   The compile pass emits a plan's body straight into this form: opcodes
   and operands are unboxed ints, structured ops carry their body length
   in code words (so a body is a [pc, pc+len) range, not a list), and
   every closure the executor still needs (loop bounds, branch
   predicates) sits in a dense side pool indexed by operand. The executor
   (Gpu_sim.Interp) runs a tight tail-recursive [match] over the array.

   Instruction layout (word offsets from the opcode):

     EXEC        0 | a_id
     LOOP        1 | slot lo hi step label body_len | <body>
     BRANCH      2 | cond then_len else_len | <then> <else>
     BRANCH_DIV  3 | cond depth then_len else_len | <then> <else>
     BARRIER     4 |
     FRAME       5 | label body_len | <body>
     FAIL        6 | fail
     COMMIT      7 |
     WAIT        8 | n

   [lo]/[hi]/[step] index [bc_exprs], [cond] indexes [bc_conds],
   [label] indexes [bc_labels], [fail] indexes [bc_fails], [a_id]
   indexes [bc_atomics] (the plan's dense atomic ids, reused verbatim).
   [depth] is the static divergence nesting level of a thread-dependent
   branch: the executor keeps one preallocated taken/not-taken mask pair
   per level, so divergence costs zero allocation at run time. An empty
   else-branch has [else_len = 0] (every op emits at least one word), so
   "skip the else only when its body is empty" needs no separate flag. *)

module P = Plan

let op_exec = P.op_exec
let op_loop = P.op_loop
let op_branch = P.op_branch
let op_branch_div = P.op_branch_div
let op_barrier = P.op_barrier
let op_frame = P.op_frame
let op_fail = P.op_fail
let op_commit = P.op_commit
let op_wait = P.op_wait

(* ----- builder ----- *)

(* A side pool under construction: [add] returns the item's index. *)
type 'a pool =
  { mutable items : 'a list  (* reversed *)
  ; mutable n : int
  }

let pool () = { items = []; n = 0 }

let add p x =
  p.items <- x :: p.items;
  p.n <- p.n + 1;
  p.n - 1

let to_array p = Array.of_list (List.rev p.items)

type builder =
  { mutable code : int array
  ; mutable len : int
  ; atomics : P.atomic pool
  ; exprs : Expr_comp.cexpr pool
  ; conds : (int array -> bool) pool
  ; labels : string pool
  ; fails : string pool
  ; mutable depth : int  (* divergent branches enclosing the emit point *)
  ; mutable max_depth : int
  }

let builder () =
  { code = Array.make 64 0
  ; len = 0
  ; atomics = pool ()
  ; exprs = pool ()
  ; conds = pool ()
  ; labels = pool ()
  ; fails = pool ()
  ; depth = 0
  ; max_depth = 0
  }

let push b x =
  if b.len = Array.length b.code then begin
    let code = Array.make (2 * b.len) 0 in
    Array.blit b.code 0 code 0 b.len;
    b.code <- code
  end;
  b.code.(b.len) <- x;
  b.len <- b.len + 1

(* Emit a body behind a reserved length operand, then patch the length. *)
let body b emit =
  let at = b.len in
  push b 0;
  emit ();
  b.code.(at) <- b.len - at - 1

let exec b (a : P.atomic) =
  if a.P.a_id <> b.atomics.n then
    invalid_arg "Bytecode.exec: atomics must be emitted in a_id order";
  push b op_exec;
  push b (add b.atomics a)

let loop b ~var ~slot ~lo ~hi ~step emit_body =
  push b op_loop;
  push b slot;
  push b (add b.exprs lo);
  push b (add b.exprs hi);
  push b (add b.exprs step);
  push b (add b.labels var);
  body b emit_body

let branch b ~divergent cond ~then_ ~else_ =
  push b (if divergent then op_branch_div else op_branch);
  push b (add b.conds cond);
  if divergent then begin
    push b b.depth;
    b.depth <- b.depth + 1;
    b.max_depth <- max b.max_depth b.depth
  end;
  (* Both length operands precede both bodies. *)
  let t_at = b.len in
  push b 0;
  push b 0;
  let t0 = b.len in
  then_ ();
  b.code.(t_at) <- b.len - t0;
  let e0 = b.len in
  else_ ();
  b.code.(t_at + 1) <- b.len - e0;
  if divergent then b.depth <- b.depth - 1

let barrier b = push b op_barrier
let commit b = push b op_commit

let wait b n =
  push b op_wait;
  push b n

let frame b label emit_body =
  push b op_frame;
  push b (add b.labels label);
  body b emit_body

let fail b msg =
  push b op_fail;
  push b (add b.fails msg)

let finish b : P.bytecode =
  { P.bc_code = Array.sub b.code 0 b.len
  ; bc_atomics = to_array b.atomics
  ; bc_exprs = to_array b.exprs
  ; bc_conds = to_array b.conds
  ; bc_labels = to_array b.labels
  ; bc_fails = to_array b.fails
  ; bc_max_depth = b.max_depth
  }

(* ----- summaries ----- *)

let opcode_name = function
  | 0 -> "exec"
  | 1 -> "loop"
  | 2 -> "branch"
  | 3 -> "branch.div"
  | 4 -> "barrier"
  | 5 -> "frame"
  | 6 -> "fail"
  | 7 -> "commit"
  | 8 -> "wait"
  | _ -> "?"

(* Instruction count and opcode histogram over ALL instructions,
   including those nested in loop/branch/frame bodies. Bodies are
   contiguous and immediately follow their op's operands, so stepping
   over each op's header alone visits every instruction exactly once. *)
let histogram (bc : P.bytecode) =
  let counts = Array.make 9 0 in
  let code = bc.P.bc_code in
  let pc = ref 0 in
  while !pc < Array.length code do
    let op = code.(!pc) in
    if op < 0 || op > 8 then invalid_arg "Bytecode.histogram: corrupt code";
    counts.(op) <- counts.(op) + 1;
    pc := !pc + P.header_words.(op)
  done;
  counts

let instruction_count bc = Array.fold_left ( + ) 0 (histogram bc)

(* Run-time scratch the executor preallocates for this bytecode: the
   divergence mask arena (one taken/not-taken word pair per warp per
   nesting level). *)
let arena_bytes ~cta_size (bc : P.bytecode) =
  let nwords = (cta_size + 31) / 32 in
  2 * bc.P.bc_max_depth * nwords * 8

let summary ~cta_size (bc : P.bytecode) =
  let counts = histogram bc in
  let hist =
    String.concat ", "
      (List.filter_map
         (fun op ->
           if counts.(op) = 0 then None
           else Some (Printf.sprintf "%s %d" (opcode_name op) counts.(op)))
         [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  Printf.sprintf
    "bytecode: %d instruction(s) in %d word(s); arena %d B (div depth %d); %s"
    (instruction_count bc)
    (Array.length bc.P.bc_code)
    (arena_bytes ~cta_size bc)
    bc.P.bc_max_depth hist

(* The per-pass render for Pipeline.lower's logging: one line per
   instruction, operands decoded. *)
let listing (bc : P.bytecode) =
  let buf = Buffer.create 256 in
  let code = bc.P.bc_code in
  let rec walk indent pc endpc =
    if pc < endpc then begin
      let arg k = code.(pc + k) in
      let body = pc + P.header_words.(arg 0) in
      let text, body_len =
        match arg 0 with
        | 0 ->
          let a = bc.P.bc_atomics.(arg 1) in
          ( Printf.sprintf "exec #%d %s" a.P.a_id
              a.P.a_instr.Graphene.Atomic.name
          , 0 )
        | 1 ->
          ( Printf.sprintf "loop %s slot=%d len=%d"
              bc.P.bc_labels.(arg 5)
              (arg 1) (arg 6)
          , arg 6 )
        | 2 ->
          (Printf.sprintf "branch then=%d else=%d" (arg 2) (arg 3), arg 2 + arg 3)
        | 3 ->
          ( Printf.sprintf "branch.div depth=%d then=%d else=%d" (arg 2) (arg 3)
              (arg 4)
          , arg 3 + arg 4 )
        | 4 -> ("barrier", 0)
        | 5 ->
          (Printf.sprintf "frame %S len=%d" bc.P.bc_labels.(arg 1) (arg 2), arg 2)
        | 6 -> (Printf.sprintf "fail %S" bc.P.bc_fails.(arg 1), 0)
        | 7 -> ("commit", 0)
        | _ (* 8 *) -> (Printf.sprintf "wait %d" (arg 1), 0)
      in
      Printf.bprintf buf "%s%04d %s\n" (String.make (2 * indent) ' ') pc text;
      walk (indent + 1) body (body + body_len);
      walk indent (body + body_len) endpc
    end
  in
  walk 0 0 (Array.length code);
  Buffer.contents buf
