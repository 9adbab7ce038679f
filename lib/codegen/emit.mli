(** CUDA C++ code generation (paper Section 5.5).

    "Since Graphene IR precisely describes the implementation of tensor
    computations, generating CUDA C++ code boils down to printing the IR as
    valid CUDA C++": control flow prints as loops/ifs, tensor manipulations
    compile to index expressions ({!Index_gen}), and undecomposed specs
    print as their atomic instruction — inline PTX asm for tensor
    instructions such as [ldmatrix] and [mma] (paper Figures 1c and 8).

    The printer decides nothing the lowering pipeline already decided: it
    prints a lowered plan, the one the simulator executes. *)

(** [cuda plan] — the full translation unit: header comment, helper
    device functions, and the [__global__] kernel of [plan.kernel] (the
    validated kernel after any software-pipelining rewrite).

    Each leaf spec, in program order, is paired with the next entry of
    [plan.body.bc_atomics]; the printer reads from that atomic its
    instruction ([a_instr]), its ldmatrix arity and transpose
    ([a_ldmatrix]), whether it is a cp.async ([a_is_async]) and the vector
    width of a register<->global move ([a_vec_width]). Shared-memory
    declarations come from [plan.allocs].

    Raises [Failure] with {!Lower.Pipeline.unmatched_message} on a leaf
    the plan has no atomic for — a spec that matches no atomic spec on the
    plan's arch, or one inside a loop with thread-dependent bounds (run
    {!Graphene.Validate.check} first for a friendlier report). *)
val cuda : Lower.Plan.t -> string
