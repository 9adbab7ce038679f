(* Host wall-clock spans recorded by the benchmark around its calls into
   each layer's public functions.

   A span carries a name, its layer, start and end, the span that caused
   it (its parent) and a request or candidate id ([tag]). Spans are kept
   in memory per domain — a pool worker appends to its own buffer, so
   recording takes no lock — and gathered when the traced run ends.
   Spans that cross into a pool task name their parent explicitly;
   otherwise the parent is the innermost open span of the same domain.

   Recording is off unless {!enable} was called: an untraced run pays one
   atomic load per wrapped call. *)

type t =
  { id : int
  ; parent : int  (** 0 for a root span *)
  ; layer : string
  ; name : string
  ; tag : int  (** request or candidate id; -1 when none *)
  ; kind : string  (** call-specific class, e.g. ["hit"] / ["miss"] *)
  ; domain : int
  ; t0 : float
  ; t1 : float
  }

let dur s = s.t1 -. s.t0

type buf =
  { mutable spans : t list
  ; mutable stack : int list
  ; dom : int
  }

let on = Atomic.make false
let next_id = Atomic.make 0
let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = []; dom = (Domain.self () :> int) } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* The innermost open span of the calling domain (0 outside any span):
   what a pool task passes as its explicit parent. *)
let current () =
  if not (Atomic.get on) then 0
  else match (Domain.DLS.get key).stack with p :: _ -> p | [] -> 0

(* [with_ ~layer name f] runs [f] inside a span. [kind] classifies the
   call from its result (evaluated only when tracing). *)
let with_ ?parent ?(tag = -1) ?kind ~layer name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match b.stack with p :: _ -> p | [] -> 0)
    in
    let id = Atomic.fetch_and_add next_id 1 + 1 in
    b.stack <- id :: b.stack;
    let t0 = Unix.gettimeofday () in
    let close k =
      let t1 = Unix.gettimeofday () in
      b.stack <- List.tl b.stack;
      b.spans <-
        { id; parent; layer; name; tag; kind = k; domain = b.dom; t0; t1 }
        :: b.spans
    in
    match f () with
    | r ->
      close (match kind with Some k -> k r | None -> "");
      r
    | exception e ->
      close "raised";
      raise e
  end

(* Every span recorded so far, on every domain, in start order. Call only
   while no pool task is running. *)
let collect () =
  Mutex.protect registry_lock (fun () ->
      List.concat_map (fun b -> b.spans) !registry)
  |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))

(* Length of the union of [(lo, hi)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
          if lo <= chi then (total, Some (clo, Float.max chi hi))
          else (total +. (chi -. clo), Some (lo, hi)))
      (0.0, None) sorted
  in
  match cur with None -> total | Some (lo, hi) -> total +. (hi -. lo)

(* Self time of each span: its duration minus the part of it that its
   children cover (children may run on other domains, so coverage is
   the union of their intervals clipped to the parent). *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let cover =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun c ->
               let lo = Float.max c.t0 s.t0 and hi = Float.min c.t1 s.t1 in
               if hi > lo then Some (lo, hi) else None)
        |> union_length
      in
      (s, Float.max 0.0 (dur s -. cover)))
    spans

(* Self time summed per layer, in the order of [layers]. *)
let layer_self ~layers spans =
  let st = self_times spans in
  List.map
    (fun l ->
      ( l
      , List.fold_left
          (fun acc (s, self) -> if String.equal s.layer l then acc +. self else acc)
          0.0 st ))
    layers

let json_str = Gpu_sim.Trace.json_string

(* The spans as Chrome [trace_events] JSON (the format
   [Gpu_sim.Trace.to_chrome_string] emits), timestamps in microseconds
   from the first span, one thread lane per domain. [other] lands in the
   document's ["otherData"] object. *)
let to_chrome ~other spans =
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let us t = (t -. base) *. 1e6 in
  let event s =
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"tag\":%d,\"kind\":%s}}"
      (json_str s.name) (json_str s.layer) (us s.t0) (dur s *. 1e6) s.domain
      s.id s.parent s.tag (json_str s.kind)
  in
  let other =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) v) other)
  in
  Printf.sprintf
    "{\"displayTimeUnit\":\"ns\",\"otherData\":{%s},\"traceEvents\":[\n%s\n]}\n"
    other
    (String.concat ",\n" (List.map event spans))
