(** Static vectorization legality and the shared-memory bank-conflict
    lint — the analysis behind the [vectorize] pass (docs/LOWERING.md).

    A per-thread move widens to a width-2/4 vector access when the view's
    scalar enumeration provably decomposes into aligned unit-stride
    groups of that width. Legality is decided entirely from static
    structure: the flattened (dim, stride) leaves of the layout levels
    (fastest-varying first), the symbolic base offset (structural
    divisibility), and the swizzle's untouched low-bit window. *)

type reason =
  | Disabled  (** vectorization turned off for this lowering *)
  | Collective  (** not a per-thread atomic *)
  | Not_move  (** only ld/st/cvt moves widen *)
  | Divergent  (** under a thread-dependent branch: masked-lane hazard *)
  | Mismatched  (** src/dst scalar counts differ or are symbolic *)
  | Too_small  (** fewer than two scalars per thread *)
  | Symbolic  (** non-constant dims or strides *)
  | Strided  (** innermost enumeration is not unit-stride groups *)
  | Misaligned  (** base offset not provably divisible by the width *)
  | Swizzled  (** swizzle's untouched window narrower than the vector *)

type verdict = Widened of int | Refused of reason

val reason_name : reason -> string

(** ["v4"], ["v2"], or ["scalar:<reason>"]. *)
val verdict_to_string : verdict -> string

(** Vector widths tried, widest first. *)
val widths : int list

(** Hardware transaction-width cap: a vector access is at most 16 bytes
    (128 bits) per thread. *)
val max_vec_bytes : int

type cap =
  { c_width : int  (** widest legal vector width (2 or 4) *)
  ; c_full_span : bool
        (** the whole per-thread enumeration is one ascending contiguous
            span [addr0, addr0 + n) — the executor's memcpy fast path *)
  }

(** Widest legal vector width of one view, or why none is. *)
val view_cap : Gpu_tensor.Tensor.t -> (cap, reason) result

(** Structural divisibility of a symbolic offset by [w] — conservative:
    variables prove nothing, products prove through either factor. *)
val divisible : int -> Shape.Int_expr.t -> bool

(** Extra serialized shared-memory cycles of one warp batch at the given
    per-thread byte width. Mirrors [Gpu_sim.Counters.conflicts_of_batch]
    (which lives above this library in the dependency order);
    test/test_vectorize.ml pins the two equal. *)
val conflicts_of_addrs : bytes:int -> int array -> int

(** [static_shared_conflicts ~cta_size v] — total extra conflict cycles
    of one CTA-wide access batch of [v], computed at lowering time;
    [None] when [v] is not shared or not statically evaluable (free
    variables beyond threadIdx.x, symbolic extents). *)
val static_shared_conflicts :
  cta_size:int -> Gpu_tensor.Tensor.t -> int option

(** The per-leaf annotation the vectorize pass attaches. *)
type leaf =
  { l_verdict : verdict  (** atomic-level decision (width or refusal) *)
  ; l_ins : verdict list  (** per input view, for diagnostics *)
  ; l_outs : verdict list
  ; l_fastcopy : bool
        (** widened AND both sides full-span contiguous: the executor may
            move the whole per-thread batch as one contiguous copy *)
  ; l_banks : (string * int) list
        (** statically conflicted shared views: (view name, extra
            conflict cycles per CTA-wide batch) *)
  }

val of_leaf :
  enabled:bool ->
  divergent:bool ->
  cta_size:int ->
  Graphene.Spec.t ->
  Graphene.Atomic.instr ->
  leaf

val pp_leaf : Format.formatter -> leaf -> unit
