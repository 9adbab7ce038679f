module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Op = Graphene.Op
module P = Lower.Plan

type ctx =
  { arch : Graphene.Arch.t
  ; buf : Buffer.t
  ; mutable indent : int
  ; atomics : P.atomic array
        (** the plan's atomics in program order: the [n]th leaf printed
            is [atomics.(n)] *)
  ; mutable next : int  (** the next leaf's index into [atomics] *)
  ; mutable hoisted : (E.t * string) list
        (** launch-index locals, in order of discovery *)
  }

let line ctx fmt =
  Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ');
  Format.kasprintf
    (fun s ->
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let raw ctx s = Buffer.add_string ctx.buf s

let starts_with = Lower.Pipeline.starts_with

let ty dt = Dt.to_cuda_string dt

let vec_copy_type bytes =
  match bytes with
  | 16 -> Some "uint4"
  | 8 -> Some "uint2"
  | 4 -> Some "uint32_t"
  | _ -> None

let total v = Ts.num_scalars_int v

(* ----- hoisting of launch-index subexpressions -----

   Generated kernels name their block/thread coordinates once (paper
   Figures 1c and 8: [int bid_m = blockIdx.x % 8;]) instead of repeating
   the arithmetic in every access. Maximal subexpressions over only
   [blockIdx.x]/[threadIdx.x] are hoisted into [int] locals; a first
   (collecting) emission pass discovers them, the second prints them. *)

let launch_only e =
  match E.free_vars e with
  | [] -> false
  | vars ->
    List.for_all
      (fun v -> String.equal v "threadIdx.x" || String.equal v "blockIdx.x")
      vars

let rec hoist_expr ctx e =
  match e with
  | E.Var _ | E.Const _ -> e
  | _ when launch_only e -> (
    match List.find_opt (fun (d, _) -> E.equal d e) ctx.hoisted with
    | Some (_, name) -> E.var name
    | None ->
      let name = Printf.sprintf "idx%d" (List.length ctx.hoisted) in
      ctx.hoisted <- ctx.hoisted @ [ (e, name) ];
      E.var name)
  | E.Add (a, b) -> E.Add (hoist_expr ctx a, hoist_expr ctx b)
  | E.Sub (a, b) -> E.Sub (hoist_expr ctx a, hoist_expr ctx b)
  | E.Mul (a, b) -> E.Mul (hoist_expr ctx a, hoist_expr ctx b)
  | E.Div (a, b) -> E.Div (hoist_expr ctx a, hoist_expr ctx b)
  | E.Mod (a, b) -> E.Mod (hoist_expr ctx a, hoist_expr ctx b)
  | E.Min (a, b) -> E.Min (hoist_expr ctx a, hoist_expr ctx b)
  | E.Max (a, b) -> E.Max (hoist_expr ctx a, hoist_expr ctx b)

let ref_ ctx v k =
  let idx = E.to_string (hoist_expr ctx (Index_gen.element_offset v k)) in
  let idx = Shape.Swizzle.to_c_expr v.Ts.swizzle idx in
  Printf.sprintf "%s[%s]" v.Ts.buffer idx

let ptr_ ctx v k = "&" ^ ref_ ctx v k

(* Read a scalar of the view as a float expression (converting from half). *)
let as_float ctx v k =
  match Ts.dtype v with
  | Dt.FP16 -> Printf.sprintf "__half2float(%s)" (ref_ ctx v k)
  | Dt.BF16 -> Printf.sprintf "__bfloat162float(%s)" (ref_ ctx v k)
  | Dt.FP32 | Dt.FP64 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool -> ref_ ctx v k

(* Assign a float expression to a scalar of the view. *)
let assign_float ctx v k expr =
  match Ts.dtype v with
  | Dt.FP16 -> Printf.sprintf "%s = __float2half(%s);" (ref_ ctx v k) expr
  | Dt.BF16 -> Printf.sprintf "%s = __float2bfloat16(%s);" (ref_ ctx v k) expr
  | Dt.FP32 | Dt.FP64 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool ->
    Printf.sprintf "%s = %s;" (ref_ ctx v k) expr

(* ----- atomic spec emission ----- *)

let emit_plain_move ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] -> (
    let n = total dst in
    let bytes = n * Dt.size_bytes (Ts.dtype dst) in
    match vec_copy_type bytes with
    | Some vt when n > 1 ->
      line ctx "*reinterpret_cast<%s*>(%s) = *reinterpret_cast<const %s*>(%s);"
        vt (ptr_ ctx dst 0) vt (ptr_ ctx src 0)
    | _ ->
      for k = 0 to n - 1 do
        line ctx "%s = %s;" (ref_ ctx dst k) (ref_ ctx src k)
      done)
  | _ -> failwith "move arity"

(* (PTX scalar type, asm register constraint, C lvalue cast) per dtype;
   [None] falls back to the scalar loop. *)
let vec_reg_class dt =
  match dt with
  | Dt.FP16 | Dt.BF16 -> Some ("b16", "h", "unsigned short")
  | Dt.FP32 | Dt.I32 | Dt.U32 -> Some ("b32", "r", "uint32_t")
  | Dt.FP64 | Dt.I8 | Dt.Bool -> None

(* A move at the plan's vector width ([a_vec_width]): widened
   register<->global moves print as explicit PTX vector transactions (the
   emission half of the vectorize pass, docs/LOWERING.md), so the PTX a
   kernel ships with and the plan the simulator executes cannot disagree
   on a width. *)
let emit_move ctx (s : Spec.t) ~width =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ]
    when width > 1
         && (match (src.Ts.mem, dst.Ts.mem) with
            | Ms.Global, Ms.Register | Ms.Register, Ms.Global -> true
            | _ -> false) -> (
    let reg_side, glob_side, is_load =
      if Ms.equal src.Ts.mem Ms.Global then (dst, src, true)
      else (src, dst, false)
    in
    let n = total dst in
    match vec_reg_class (Ts.dtype dst) with
    | Some (pty, cls, cast) when n mod width = 0 ->
      let reg k = Printf.sprintf "*reinterpret_cast<%s*>(%s)" cast
          (ptr_ ctx reg_side k)
      in
      let holes lo = String.concat ","
          (List.init width (fun i -> Printf.sprintf "%%%d" (lo + i)))
      in
      for g = 0 to (n / width) - 1 do
        let k = g * width in
        if is_load then begin
          line ctx "asm volatile(\"ld.global.v%d.%s {%s}, [%%%d];\\n\"" width
            pty (holes 0) width;
          line ctx "    : %s"
            (String.concat ", "
               (List.init width (fun i ->
                    Printf.sprintf "\"=%s\"(%s)" cls (reg (k + i)))));
          line ctx "    : \"l\"(%s));" (ptr_ ctx glob_side k)
        end
        else begin
          line ctx "asm volatile(\"st.global.v%d.%s [%%0], {%s};\\n\"" width
            pty (holes 1);
          line ctx "    :: \"l\"(%s), %s);" (ptr_ ctx glob_side k)
            (String.concat ", "
               (List.init width (fun i ->
                    Printf.sprintf "\"%s\"(%s)" cls (reg (k + i)))))
        end
      done
    | _ -> emit_plain_move ctx s)
  | _ -> emit_plain_move ctx s

let emit_cp_async ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let bytes = total dst * Dt.size_bytes (Ts.dtype dst) in
    line ctx
      "asm volatile(\"cp.async.cg.shared.global [%%0], [%%1], %d;\\n\" :: \
       \"r\"((unsigned)__cvta_generic_to_shared(%s)), \"l\"(%s));"
      bytes (ptr_ ctx dst 0) (ptr_ ctx src 0)
  | _ -> failwith "cp.async arity"

let emit_cvt ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float ctx dst k (as_float ctx src k))
    done
  | _ -> failwith "cvt arity"

let emit_ldmatrix ctx ~trans x (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    (* Thread lane [l] supplies the address of stored row [l mod 8] of
       matrix [l / 8]; matrices walk the outer tiles leftmost-fastest; each
       thread receives two adjacent fp16 values per matrix (paper Figures
       1a/1b). *)
    let lane = E.rem (E.var "threadIdx.x") (E.const 32) in
    let row = E.rem lane (E.const 8) in
    let j = E.div lane (E.const 8) in
    let pick_row tile =
      if trans then Ts.select tile [ E.zero; row ]
      else Ts.select tile [ row; E.zero ]
    in
    let row_view =
      match x with
      | 4 ->
        let m = E.rem j (E.const 2) and n = E.div j (E.const 2) in
        pick_row (Ts.select src [ m; n ])
      | 2 ->
        let jm = E.rem j (E.const 2) in
        let tile =
          if Ts.rank src = 2 then Ts.select src [ jm; E.zero ]
          else Ts.select src [ jm ]
        in
        pick_row tile
      | 1 -> pick_row src
      | _ -> failwith "ldmatrix width"
    in
    let regs =
      List.init x (fun k ->
          Printf.sprintf "\"=r\"(*reinterpret_cast<uint32_t*>(%s))"
            (ptr_ ctx dst (2 * k)))
    in
    let reg_holes = List.init x (fun k -> Printf.sprintf "%%%d" k) in
    line ctx "asm volatile(\"ldmatrix.sync.aligned.m8n8.x%d%s.shared.b16 \
              {%s}, [%%%d];\\n\"" x
      (if trans then ".trans" else "")
      (String.concat ", " reg_holes)
      x;
    line ctx "    : %s" (String.concat ", " regs);
    line ctx "    : \"r\"((unsigned)__cvta_generic_to_shared(%s)));"
      (ptr_ ctx row_view 0)
  | _ -> failwith "ldmatrix arity"

let u32_ref ctx v k =
  Printf.sprintf "*reinterpret_cast<uint32_t*>(%s)" (ptr_ ctx v k)

let emit_mma_m16n8k16 ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    line ctx
      "asm volatile(\"mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32 \
       {%%0,%%1,%%2,%%3}, {%%4,%%5,%%6,%%7}, {%%8,%%9}, {%%0,%%1,%%2,%%3};\\n\"";
    line ctx "    : \"+f\"(%s), \"+f\"(%s), \"+f\"(%s), \"+f\"(%s)"
      (ref_ ctx c 0) (ref_ ctx c 1) (ref_ ctx c 2) (ref_ ctx c 3);
    line ctx "    : \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s), \
              \"r\"(%s));"
      (u32_ref ctx a 0) (u32_ref ctx a 2) (u32_ref ctx a 4) (u32_ref ctx a 6)
      (u32_ref ctx b 0) (u32_ref ctx b 2)
  | _ -> failwith "mma arity"

let emit_mma_m8n8k4 ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    line ctx
      "asm volatile(\"mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32 \
       {%%0,%%1,%%2,%%3,%%4,%%5,%%6,%%7}, {%%8,%%9}, {%%10,%%11}, \
       {%%0,%%1,%%2,%%3,%%4,%%5,%%6,%%7};\\n\"";
    line ctx "    : %s"
      (String.concat ", "
         (List.init 8 (fun k -> Printf.sprintf "\"+f\"(%s)" (ref_ ctx c k))));
    line ctx "    : \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s));"
      (u32_ref ctx a 0) (u32_ref ctx a 2) (u32_ref ctx b 0) (u32_ref ctx b 2)
  | _ -> failwith "mma arity"

let emit_fma ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    let n = total c in
    if Dt.equal (Ts.dtype c) Dt.FP16 && n = 2 then
      line ctx
        "*reinterpret_cast<__half2*>(%s) = \
         __hfma2(*reinterpret_cast<const __half2*>(%s), \
         *reinterpret_cast<const __half2*>(%s), \
         *reinterpret_cast<__half2*>(%s)[0]);"
        (ptr_ ctx c 0) (ptr_ ctx a 0) (ptr_ ctx b 0) (ptr_ ctx c 0)
    else
      for k = 0 to n - 1 do
        if Dt.equal (Ts.dtype c) Dt.FP16 then
          line ctx "%s = __hfma(%s, %s, %s);" (ref_ ctx c k) (ref_ ctx a k)
            (ref_ ctx b k) (ref_ ctx c k)
        else
          line ctx "%s += %s * %s;" (ref_ ctx c k) (ref_ ctx a k) (ref_ ctx b k)
      done
  | _ -> failwith "fma arity"

let emit_unary ctx op (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s"
        (assign_float ctx dst k (Op.cuda_unary op (as_float ctx src k)))
    done
  | _ -> failwith "unary arity"

let emit_binary ctx op (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ dst ] ->
    (* Size-1 operands broadcast. *)
    let idx v k = if total v = 1 then 0 else k in
    for k = 0 to total dst - 1 do
      line ctx "%s"
        (assign_float ctx dst k
           (Op.cuda_binary op
              (as_float ctx a (idx a k))
              (as_float ctx b (idx b k))))
    done
  | _ -> failwith "binary arity"

let emit_reduction ctx op axes (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let ni = total src and no = total dst in
    if no = 1 then
      (* Accumulating full reduction: dst = op(dst, src_k). *)
      for k = 0 to ni - 1 do
        line ctx "%s"
          (assign_float ctx dst 0
             (Op.cuda_binary op (as_float ctx dst 0) (as_float ctx src k)))
      done
    else
      let red = ni / no in
      for o = 0 to no - 1 do
        for r = 0 to red - 1 do
          let k =
            match axes with [ 0 ] -> (o * red) + r | _ -> (r * no) + o
          in
          line ctx "%s"
            (assign_float ctx dst o
               (Op.cuda_binary op (as_float ctx dst o) (as_float ctx src k)))
        done
      done
  | _ -> failwith "reduction arity"

let emit_shfl ctx kind (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let call v =
      match kind with
      | Spec.Bfly m -> Printf.sprintf "__shfl_xor_sync(0xffffffffu, %s, %d)" v m
      | Spec.Up d -> Printf.sprintf "__shfl_up_sync(0xffffffffu, %s, %d)" v d
      | Spec.Down d ->
        Printf.sprintf "__shfl_down_sync(0xffffffffu, %s, %d)" v d
      | Spec.Idx e ->
        Printf.sprintf "__shfl_sync(0xffffffffu, %s, %s)" v
          (E.to_string (hoist_expr ctx e))
    in
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float ctx dst k (call (as_float ctx src k)))
    done
  | _ -> failwith "shfl arity"

let emit_init ctx v (s : Spec.t) =
  match s.Spec.outs with
  | [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float ctx dst k (Printf.sprintf "%.9gf" v))
    done
  | _ -> failwith "init arity"

(* Pair a leaf with the plan's next atomic. The compile pass emits
   atomics in program order and the printer walks the same kernel, so a
   mismatch means the plan has no atomic for this leaf: it matched no
   atomic spec, or it sits in a loop with thread-dependent bounds. The
   plan could not execute it either. *)
let next_atomic ctx (s : Spec.t) =
  let i = ctx.next in
  if i < Array.length ctx.atomics && ctx.atomics.(i).P.a_spec == s then begin
    ctx.next <- i + 1;
    ctx.atomics.(i)
  end
  else failwith (Lower.Pipeline.unmatched_message ctx.arch s)

let emit_atomic ctx (s : Spec.t) =
  let a = next_atomic ctx s in
  let name = a.P.a_instr.Atomic.name in
  match a.P.a_ldmatrix with
  | Some (x, trans) -> emit_ldmatrix ctx ~trans x s
  | None when a.P.a_is_async -> emit_cp_async ctx s
  | None when starts_with "cvt" name -> emit_cvt ctx s
  | None
    when starts_with "ld." name || starts_with "st." name
         || String.equal "mov.rf" name ->
    emit_move ctx s ~width:a.P.a_vec_width
  | None when starts_with "mma.m16n8k16" name -> emit_mma_m16n8k16 ctx s
  | None when String.equal "mma.m8n8k4" name -> emit_mma_m8n8k4 ctx s
  | None when starts_with "hfma" name || String.equal "fmaf" name ->
    emit_fma ctx s
  | None -> (
    match s.Spec.kind with
    | Spec.Unary_pointwise op -> emit_unary ctx op s
    | Spec.Binary_pointwise op -> emit_binary ctx op s
    | Spec.Reduction { op; axes } -> emit_reduction ctx op axes s
    | Spec.Shfl kind -> emit_shfl ctx kind s
    | Spec.Init v -> emit_init ctx v s
    | Spec.Move | Spec.Mat_mul | Spec.Generic _ ->
      failwith ("Emit: unhandled atomic instruction " ^ name))

(* ----- statements ----- *)

let rel_string = function
  | Spec.Lt -> "<"
  | Spec.Le -> "<="
  | Spec.Eq -> "=="
  | Spec.Ne -> "!="
  | Spec.Gt -> ">"
  | Spec.Ge -> ">="

let rec pred_string ctx = function
  | Spec.Cmp (r, a, b) ->
    Printf.sprintf "%s %s %s"
      (E.to_string (hoist_expr ctx a))
      (rel_string r)
      (E.to_string (hoist_expr ctx b))
  | Spec.And (a, b) ->
    Printf.sprintf "(%s && %s)" (pred_string ctx a) (pred_string ctx b)
  | Spec.Or (a, b) ->
    Printf.sprintf "(%s || %s)" (pred_string ctx a) (pred_string ctx b)
  | Spec.Not p -> Printf.sprintf "!(%s)" (pred_string ctx p)

let rec emit_stmt ctx stmt =
  match stmt with
  | Spec.Comment c -> line ctx "// %s" c
  | Spec.Sync -> line ctx "__syncthreads();"
  | Spec.Commit_group -> line ctx "asm volatile(\"cp.async.commit_group;\\n\");"
  | Spec.Wait_group n ->
    line ctx "asm volatile(\"cp.async.wait_group %d;\\n\");" n
  | Spec.Alloc t ->
    (match t.Ts.mem with
    | Ms.Shared -> line ctx "// __shared__ %s (hoisted)" t.Ts.buffer
    | Ms.Register | Ms.Global ->
      line ctx "%s %s[%d];" (ty (Ts.dtype t)) t.Ts.buffer (L.cosize t.Ts.layout))
  | Spec.For { var; lo; hi; step; unroll; body } ->
    if unroll then line ctx "#pragma unroll";
    line ctx "for (int %s = %s; %s < %s; %s += %s) {" var (E.to_string lo) var
      (E.to_string hi) var (E.to_string step);
    ctx.indent <- ctx.indent + 1;
    List.iter (emit_stmt ctx) body;
    ctx.indent <- ctx.indent - 1;
    line ctx "}"
  | Spec.If { cond; then_; else_ } ->
    line ctx "if (%s) {" (pred_string ctx cond);
    ctx.indent <- ctx.indent + 1;
    List.iter (emit_stmt ctx) then_;
    ctx.indent <- ctx.indent - 1;
    if else_ = [] then line ctx "}"
    else begin
      line ctx "} else {";
      ctx.indent <- ctx.indent + 1;
      List.iter (emit_stmt ctx) else_;
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
    end
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | None -> emit_atomic ctx s
    | Some body ->
      if String.length s.Spec.label > 0 then
        line ctx "// %s: %s" (Spec.kind_name s.Spec.kind) s.Spec.label;
      List.iter (emit_stmt ctx) body)

(* ----- kernel ----- *)

let written_buffers body =
  Spec.fold_specs
    (fun acc s ->
      List.fold_left
        (fun acc (v : Ts.t) ->
          if Ms.equal v.Ts.mem Ms.Global then v.Ts.buffer :: acc else acc)
        acc s.Spec.outs)
    [] body
  |> List.sort_uniq String.compare

let uses_gelu body =
  Spec.fold_specs
    (fun acc s ->
      acc || match s.Spec.kind with Spec.Unary_pointwise Op.Gelu -> true | _ -> false)
    false body

let cuda (plan : P.t) =
  let k = plan.P.kernel in
  let ctx =
    { arch = plan.P.arch
    ; buf = Buffer.create 4096
    ; indent = 0
    ; atomics = plan.P.body.P.bc_atomics
    ; next = 0
    ; hoisted = []
    }
  in
  raw ctx
    (Printf.sprintf
       "// Generated by Graphene (OCaml reproduction) for %s\n\
        // kernel: %s | launch: <<<%d, %d>>>\n\
        #include <cuda_fp16.h>\n\n"
       (Graphene.Arch.name plan.P.arch) k.Spec.name plan.P.grid_size
       plan.P.cta_size);
  if uses_gelu k.Spec.body then
    raw ctx
      "__device__ __forceinline__ float gelu(float x) {\n\
      \  return 0.5f * x * (1.0f + tanhf(0.7978845608f * (x + 0.044715f * x \
       * x * x)));\n\
       }\n\n";
  let written = written_buffers k.Spec.body in
  let param_decl (v : Ts.t) =
    let const =
      if List.mem v.Ts.buffer written then "" else "const "
    in
    Printf.sprintf "%s%s* __restrict__ %s" const (ty (Ts.dtype v)) v.Ts.buffer
  in
  let scalar_decls = List.map (Printf.sprintf "int %s") k.Spec.scalar_params in
  raw ctx
    (Printf.sprintf "extern \"C\" __global__ void %s(%s) {\n" k.Spec.name
       (String.concat ", " (List.map param_decl k.Spec.params @ scalar_decls)));
  ctx.indent <- 1;
  (* Pass 1 (discarded): discover the launch-index subexpressions. *)
  let probe = { ctx with buf = Buffer.create 1024 } in
  List.iter (emit_stmt probe) k.Spec.body;
  ctx.hoisted <- probe.hoisted;
  (* Emit the hoisted index definitions, then the real body. *)
  List.iter
    (fun (e, name) -> line ctx "int %s = %s;" name (E.to_string e))
    ctx.hoisted;
  (* Hoist shared-memory allocations. *)
  List.iter
    (fun (al : P.alloc) ->
      if Ms.equal al.P.al_mem Ms.Shared then
        line ctx "__shared__ %s %s[%d];" (ty al.P.al_dtype) al.P.al_buffer
          al.P.al_size)
    plan.P.allocs;
  List.iter (emit_stmt ctx) k.Spec.body;
  ctx.indent <- 0;
  raw ctx "}\n";
  Buffer.contents ctx.buf
