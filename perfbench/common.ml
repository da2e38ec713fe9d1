(* Measurement plumbing shared by the three workloads: the clock,
   quantiles, process memory and GC readings, the correctness tally,
   and the traced-run layer ledger. *)

let now_ns = Replica_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns *. 1e-6
let s_of_ns ns = float_of_int ns *. 1e-9

(* Linear-interpolation quantile (the "inclusive" method of Python's
   statistics module), so p50 of an even sample is the midpoint. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> 0.
  | n ->
      let s = Array.copy xs in
      Array.sort compare s;
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then s.(n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile 0.5 xs

(* Growable float sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* VmHWM of this process: the workload runs alone in it, so the figure
   is the workload's own peak. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

type gc_mark = { minor : int; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

(* Setup is repeated and the median reported, so one slow allocation
   burst does not decide the figure: at least 3 times, and more while
   the repetitions have taken under a second in all, up to 200. A full
   major collection before each keeps the heap state alike. Every
   repetition builds the same inputs; the last one is kept. *)
let timed_setup build =
  let times = samples () in
  let last = ref None and spent = ref 0 in
  while times.len < 3 || (!spent < 1_000_000_000 && times.len < 200) do
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let v = build () in
    let dt = now_ns () - t0 in
    spent := !spent + dt;
    push times (s_of_ns dt);
    last := Some v
  done;
  (median (to_array times), times.len, Option.get !last)

(* Mean wall time per call, in ms, of [f] over a batch of problems
   answered back to back with nothing kept: a 20 µs solve timed alone
   is mostly clock and allocator noise. *)
let mean_ms f problems =
  let t0 = now_ns () in
  Array.iter (fun p -> ignore (Sys.opaque_identity (f p))) problems;
  ms_of_ns (now_ns () - t0) /. float_of_int (max 1 (Array.length problems))

(* --- Correctness tally ------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let tally () = { attempted = 0; failed = 0; first_failure = None }

(* One checked operation: [ok] false counts it as failed. *)
let record t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some (Lazy.force msg)
  end

(* --- Metrics ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* What a workload's reference pass establishes about its first
   episode: answer quality and the baseline heuristic's timings. *)
type quality = {
  heuristic_ms : float array;  (** baseline heuristic solve times *)
  reconfig_cost : float;  (** summed Eq. 2 / Eq. 4 reconfiguration bill *)
  power : float;  (** summed Eq. 3 power of the placements in force *)
  heuristic_value : float;  (** summed baseline objective *)
  exact_value : float;  (** summed exact objective on the same problems *)
  checked : int;  (** single-tree decisions checked *)
  unserveable : int;  (** of which no placement can serve the demand *)
}

(* --- Run options ------------------------------------------------- *)

type options = {
  seed : int;
  seconds : float;
  tiny : bool;  (** self-test sizes *)
  corrupt : bool;  (** damage one placement before the reference check *)
  domains : int;  (** parallel fan-out where the workload has one *)
}

(* The closed loop: run whole episodes, at least one, until [seconds]
   have passed. *)
let repeat_until opts episode =
  let t0 = now_ns () in
  episode ();
  while s_of_ns (now_ns () - t0) < opts.seconds do
    episode ()
  done

(* --- Layer ledger ------------------------------------------------- *)

(* Benchmark-owned spans are named "bench.<layer>.<call>"; the
   program's own spans are named "<module>.<phase>". Both map onto the
   repository's layers. *)
let layers = [ "trace"; "tree"; "forest"; "engine"; "core" ]

let layer_of_span name =
  let prefix p = String.starts_with ~prefix:p name in
  if prefix "bench.trace." then "trace"
  else if prefix "bench.tree." then "tree"
  else if prefix "bench.forest." then "forest"
  else if prefix "bench.engine." || prefix "engine." then "engine"
  else if prefix "bench.core." || prefix "dp_" || prefix "greedy" then "core"
  else "other"

let span name f =
  if Span.enabled () then Span.with_span name f else f ()

type ledger = {
  spans : Span.span list;
  rows : Replica_obs.Profile.row list;  (** every domain *)
  wall_ns : int;  (** traced wall on the calling domain *)
  main_self_ns : int;  (** self time of the calling domain's spans *)
  dropped : int;
}

(* Trace [f] with per-span allocation capture and fold the spans into
   a profile. *)
let traced f =
  Span.reset ();
  Span.set_capacity 4_000_000;
  Span.set_alloc true;
  Span.set_enabled true;
  let t0 = now_ns () in
  let v = f () in
  let wall_ns = now_ns () - t0 in
  Span.set_enabled false;
  Span.set_alloc false;
  let spans = Span.export () in
  let dropped = Span.dropped () in
  Span.reset ();
  let forest = Replica_obs.Trace_reader.forest_of_spans spans in
  let me = (Domain.self () :> int) in
  let main =
    Replica_obs.Trace_reader.forest_of_spans
      (List.filter (fun (s : Span.span) -> s.Span.tid = me) spans)
  in
  let main_self_ns =
    List.fold_left
      (fun acc (r : Replica_obs.Profile.row) -> acc + r.self_ns)
      0
      (Replica_obs.Profile.rows main)
  in
  ( v,
    {
      spans;
      rows = Replica_obs.Profile.rows forest;
      wall_ns;
      main_self_ns;
      dropped;
    } )

let row l name =
  List.find_opt (fun (r : Replica_obs.Profile.row) -> r.name = name) l.rows

let total_ns l name = match row l name with Some r -> r.total_ns | None -> 0
let self_ns l name = match row l name with Some r -> r.self_ns | None -> 0
let calls l name = match row l name with Some r -> r.calls | None -> 0

(* Words a span allocated: minor-heap words plus words allocated or
   promoted into the major heap. *)
let total_words l name =
  match row l name with
  | Some r -> r.total_minor_w + r.total_major_w
  | None -> 0

let durations_ms l name =
  l.spans
  |> List.filter (fun (s : Span.span) -> s.Span.name = name)
  |> List.map (fun (s : Span.span) -> ms_of_ns s.Span.dur_ns)
  |> Array.of_list

let sum_int_arg l name key =
  List.fold_left
    (fun acc (s : Span.span) ->
      if s.Span.name <> name then acc
      else
        match List.assoc_opt key s.Span.args with
        | Some (Span.Int v) -> acc + v
        | Some (Span.Bool true) -> acc + 1
        | _ -> acc)
    0 l.spans

(* Closure tolerance: the layers' self time on the calling domain must
   cover at least this share of the traced wall (the rest is the
   benchmark's own loop glue), and never more than all of it. *)
let closure_tolerance = 0.05

let sum f ledgers = List.fold_left (fun acc l -> acc + f l) 0 ledgers

let layer_closure ledgers =
  float_of_int (sum (fun l -> l.main_self_ns) ledgers)
  /. float_of_int (max 1 (sum (fun l -> l.wall_ns) ledgers))

(* Per-layer self seconds and allocated megawords over every domain and
   every traced stretch (set-up plus one episode), and the trust checks
   on the trace itself. *)
let ledger_metrics ledgers =
  let self = Hashtbl.create 8 and words = Hashtbl.create 8 in
  let add tbl layer v =
    Hashtbl.replace tbl layer (v + Option.value (Hashtbl.find_opt tbl layer) ~default:0)
  in
  List.iter
    (fun l ->
      List.iter
        (fun (r : Replica_obs.Profile.row) ->
          let layer = layer_of_span r.name in
          add self layer r.self_ns;
          add words layer (r.self_minor_w + r.self_major_w))
        l.rows)
    ledgers;
  let get tbl layer = Option.value (Hashtbl.find_opt tbl layer) ~default:0 in
  List.concat_map
    (fun layer ->
      [
        metric (layer ^ ".self_s") "s" (s_of_ns (get self layer));
        metric (layer ^ ".alloc_mw") "Mword" (float_of_int (get words layer) *. 1e-6);
      ])
    layers
  @ [
      metric "obs.spans_dropped" "count" (float_of_int (sum (fun l -> l.dropped) ledgers));
      metric "obs.layer_closure" "share" (layer_closure ledgers);
    ]

(* No span may be dropped; at full size the layers must also close on
   the wall (at self-test sizes the loop glue is a visible share). *)
let check_trace tally ~tiny ledgers =
  let dropped = sum (fun l -> l.dropped) ledgers in
  record tally (dropped = 0) (lazy (Printf.sprintf "trace dropped %d spans" dropped));
  let c = layer_closure ledgers in
  if not tiny then
    record tally
      (c >= 1. -. closure_tolerance && c <= 1.)
      (lazy (Printf.sprintf "layer self times close on %.3f of the wall" c))

(* --- Stats_counters ------------------------------------------------ *)

let counter name =
  Option.value (List.assoc_opt name (Stats_counters.counters ())) ~default:0

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let memo_hit_ratio prefix =
  let hits = counter (prefix ^ ".memo_hits") in
  ratio hits
    (hits + counter (prefix ^ ".memo_partial") + counter (prefix ^ ".memo_misses"))

let dp_counters prefix names =
  List.map
    (fun n -> metric (prefix ^ "." ^ n) "count" (float_of_int (counter (prefix ^ "." ^ n))))
    names
  @ [ metric (prefix ^ ".memo_hit_ratio") "share" (memo_hit_ratio prefix) ]

let dp_withpre_metrics () =
  dp_counters "dp_withpre"
    [ "merge_products"; "cells_created"; "capacity_rejected"; "peak_table_size" ]

let dp_power_metrics () =
  dp_counters "dp_power"
    [
      "merge_products"; "cells_created"; "dominance_pruned"; "capacity_rejected";
      "peak_table_size";
    ]
