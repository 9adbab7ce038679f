(* Static vectorization legality + shared-memory bank-conflict lint.

   The vectorize pass proves, per view, whether the per-thread scalar
   enumeration decomposes into aligned unit-stride groups of 2 or 4
   elements — the shape a 64/128-bit vector load/store (ld.global.v2/v4,
   ld.shared.v4, ...) needs. Everything is decided from the *static*
   stride/offset structure the depcheck pass already relies on: the
   flattened (dim, stride) leaves of the view's layout levels, the
   symbolic base offset, and the swizzle. No addresses are enumerated
   (except by the bank lint, which evaluates fully-static shared views).

   The contiguity argument mirrors [Tensor.scalar_offsets]: the scalar
   enumeration is a cartesian sum over the flattened layout leaves with
   the innermost level varying fastest and, within a level, the leftmost
   leaf fastest ([Layout.nth_index]). So if the fastest-first leaves
   start with a unit-stride prefix (stride 1, then d0, then d0*d1, ...),
   the enumeration is a sequence of ascending contiguous runs of that
   prefix's total extent; a width-w vector access is legal when w divides
   the run, every remaining stride keeps groups w-aligned, the base
   offset is provably w-divisible, and the swizzle's untouched low-bit
   window ([Swizzle.low_window]) covers the vector. An XOR swizzle maps
   an aligned w-run [a, a+w) to the aligned w-run [swizzle a, swizzle a + w)
   whenever w fits the low window — the XORed bits are constant across
   the run — so swizzled staging views still widen. *)

module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic

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

let reason_name = function
  | Disabled -> "disabled"
  | Collective -> "collective"
  | Not_move -> "not-a-move"
  | Divergent -> "divergent-mask"
  | Mismatched -> "shape-mismatch"
  | Too_small -> "too-small"
  | Symbolic -> "symbolic"
  | Strided -> "strided"
  | Misaligned -> "misaligned"
  | Swizzled -> "swizzled"

let verdict_to_string = function
  | Widened w -> Printf.sprintf "v%d" w
  | Refused r -> "scalar:" ^ reason_name r

let widths = [ 4; 2 ]
let max_vec_bytes = 16

(* ----- per-view legality ----- *)

type cap =
  { c_width : int  (** widest legal vector width (2 or 4) *)
  ; c_full_span : bool
        (** the whole per-thread enumeration is one ascending contiguous
            span [addr0, addr0 + n) — the executor's memcpy fast path *)
  }

(* The (dim, stride) leaves of the view's full scalar enumeration,
   fastest-varying first: innermost level first (each successive level of
   [Tensor.scalar_offsets]'s fold becomes the new fastest), leftmost leaf
   first within a level ([Layout.nth_index]). *)
let leaf_pairs (v : Ts.t) =
  List.concat_map
    (fun l -> List.combine (T.flatten (L.dims l)) (T.flatten (L.strides l)))
    (List.rev (Ts.levels v))

let const_pairs v =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (d, s) :: tl -> (
      match (E.to_int d, E.to_int s) with
      | Some d, Some s -> go ((d, s) :: acc) tl
      | _ -> None)
  in
  go [] (leaf_pairs v)

(* Provable divisibility of a symbolic offset — conservative, purely
   structural: a variable proves nothing, a product proves through either
   factor, sums need both sides. *)
let rec divisible w (e : E.t) =
  match e with
  | E.Const n -> n mod w = 0
  | E.Add (a, b) | E.Sub (a, b) -> divisible w a && divisible w b
  | E.Mul (a, b) -> divisible w a || divisible w b
  | E.Var _ -> false
  | E.Div _ | E.Mod _ | E.Min _ | E.Max _ -> (
    match E.to_int e with Some n -> n mod w = 0 | None -> false)

let view_cap (v : Ts.t) : (cap, reason) result =
  match const_pairs v with
  | None -> Error Symbolic
  | Some pairs ->
    (* Degenerate unit modes carry no enumeration structure and must not
       break coalescing, so they are filtered before the algebra runs. *)
    let enum = L.of_flat (List.filter (fun (d, _) -> d <> 1) pairs) in
    if L.size_int enum < 2 then Error Too_small
    else begin
      (* Coalesce the composed enumeration layout S ∘ L: a leading
         unit-stride mode is the contiguous run each thread's enumeration
         repeats (coalescing fuses exactly the stride-1, d0, d0*d1, ...
         prefix into it); every remaining mode's kept stride must keep
         width-w groups w-aligned (fused members are multiples of the
         kept stride, so checking the coalesced modes suffices). *)
      let co = L.composed_coalesce (L.compose_swizzle v.Ts.swizzle enum) in
      let run, rest =
        match L.flat_ints co.L.c_base with
        | (d, 1) :: tl -> (d, tl)
        | cpairs -> (1, cpairs)
      in
      if run = 1 then Error Strided
      else begin
        let elt = Dt.size_bytes (Ts.dtype v) in
        let aligned w =
          (* Register destinations have no byte-address alignment; memory
             vectors must start on a w-element boundary. *)
          Ms.equal v.Ts.mem Ms.Register || divisible w v.Ts.offset
        in
        (* An XOR swizzle maps an aligned w-run to an aligned w-run iff w
           fits its untouched low-bit window. *)
        let swizzle_ok w = w <= L.composed_low_window co in
        let legal w =
          w * elt <= max_vec_bytes
          && run mod w = 0
          && List.for_all (fun (_, s) -> s mod w = 0) rest
          && aligned w
          && swizzle_ok w
        in
        match List.find_opt legal widths with
        | Some w ->
          Ok
            { c_width = w
            ; c_full_span =
                rest = [] && Shape.Swizzle.is_identity co.L.c_swizzle
            }
        | None ->
          (* Diagnose the narrowest width (the weakest requirement). *)
          let w = 2 in
          if
            run mod w <> 0
            || List.exists (fun (_, s) -> s mod w <> 0) rest
            || w * elt > max_vec_bytes
          then Error Strided
          else if not (swizzle_ok w) then Error Swizzled
          else Error Misaligned
      end
    end

(* ----- static bank-conflict lint -----

   For shared views whose only free variable is threadIdx.x, every lane's
   first-scalar byte address is a lowering-time constant, so the warp's
   bank pattern — exactly what [Counters.record_shared_batch] will meter
   at execution — is computable before any simulation runs. *)

(* Mirrors Counters.conflicts_of_batch, which lives above this library
   in the dependency order (as Semantics.tile_coords is to the compile
   pass); test/test_vectorize.ml pins the two equal on shared inputs. *)
let conflicts_of_addrs ~bytes addrs =
  let per_phase = max 1 (128 / max 1 bytes) in
  let len = Array.length addrs in
  let acc = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + per_phase) in
    let words_per_bank = Array.make 32 [] in
    for j = !i to stop - 1 do
      let a = addrs.(j) in
      let lo = a / 4 and hi = (a + bytes - 1) / 4 in
      for w = lo to hi do
        let bank = w mod 32 in
        if not (List.mem w words_per_bank.(bank)) then
          words_per_bank.(bank) <- w :: words_per_bank.(bank)
      done
    done;
    let degree =
      Array.fold_left (fun acc ws -> max acc (List.length ws)) 1 words_per_bank
    in
    acc := !acc + (degree - 1);
    i := stop
  done;
  !acc

let tid = "threadIdx.x"

let static_shared_conflicts ~cta_size (v : Ts.t) =
  if not (Ms.equal v.Ts.mem Ms.Shared) then None
  else if not (List.for_all (String.equal tid) (Ts.free_vars v)) then None
  else
    match Ts.num_scalars_int v with
    | exception Invalid_argument _ -> None
    | n ->
      let elt = Dt.size_bytes (Ts.dtype v) in
      let bytes = n * elt in
      let total = ref 0 in
      let t = ref 0 in
      while !t < cta_size do
        let lanes = min 32 (cta_size - !t) in
        let addrs =
          (* Lane address = first index of the lane's composed layout
             image (S ∘ (L + offset) at linear coordinate 0). *)
          Array.init lanes (fun l ->
              let tv = !t + l in
              let env x = if String.equal x tid then tv else 0 in
              L.composed_nth (Ts.composed ~env v) 0 * elt)
        in
        total := !total + conflicts_of_addrs ~bytes addrs;
        t := !t + 32
      done;
      Some !total

(* ----- per-leaf annotation ----- *)

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

let scalar_count v =
  match Ts.num_scalars_int v with
  | n -> Some n
  | exception Invalid_argument _ -> None

let of_leaf ~enabled ~divergent ~cta_size (s : Spec.t) (instr : Atomic.instr)
    =
  let per_thread = instr.Atomic.threads = 1 in
  let l_banks =
    if per_thread then
      List.filter_map
        (fun (v : Ts.t) ->
          match static_shared_conflicts ~cta_size v with
          | Some c when c > 0 -> Some (v.Ts.name, c)
          | _ -> None)
        (s.Spec.ins @ s.Spec.outs)
    else []
  in
  let in_caps = List.map view_cap s.Spec.ins in
  let out_caps = List.map view_cap s.Spec.outs in
  let verdict_of = function
    | Ok c -> Widened c.c_width
    | Error r -> Refused r
  in
  let l_ins = List.map verdict_of in_caps in
  let l_outs = List.map verdict_of out_caps in
  let refuse r =
    { l_verdict = Refused r; l_ins; l_outs; l_fastcopy = false; l_banks }
  in
  let is_move = match s.Spec.kind with Spec.Move -> true | _ -> false in
  if not enabled then refuse Disabled
  else if not per_thread then refuse Collective
  else if not is_move then refuse Not_move
  else if divergent then refuse Divergent
  else
    match (in_caps, out_caps, s.Spec.ins, s.Spec.outs) with
    | [ Error r ], _, _, _ -> refuse r
    | _, [ Error r ], _, _ -> refuse r
    | [ Ok ci ], [ Ok co ], [ vi ], [ vo ] ->
      if scalar_count vi <> scalar_count vo then refuse Mismatched
      else
        { l_verdict = Widened (min ci.c_width co.c_width)
        ; l_ins
        ; l_outs
        ; l_fastcopy = ci.c_full_span && co.c_full_span
        ; l_banks
        }
    | _ -> refuse Mismatched

let pp_leaf fmt (l : leaf) =
  (match l.l_verdict with
  | Widened w ->
    Format.fprintf fmt "v%d%s" w (if l.l_fastcopy then " contiguous" else "")
  | Refused r -> Format.fprintf fmt "scalar (%s)" (reason_name r));
  (match (l.l_ins, l.l_outs) with
  | [], [] -> ()
  | ins, outs ->
    let views vs = String.concat ", " (List.map verdict_to_string vs) in
    Format.fprintf fmt "  ins[%s] outs[%s]" (views ins) (views outs));
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "  BANK-CONFLICT %%%s: +%d cycles/batch" name c)
    l.l_banks
