(* Benchmark runner: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--tiny] [--corrupt] [--domains N]

   With --trace 0 it measures the end-to-end metrics on an untraced
   closed loop. With --trace 1 it reports the per-layer ledger instead:
   counts and GC figures from an untraced episode, self time and
   allocation per layer from a traced twin. Either way the first
   episode is checked against a reference in an untimed pass. Each
   metric is printed with its unit and sample count; the last line is
   the JSON result. *)

open Common

module type WORKLOAD = sig
  type inputs
  type episode

  val setup : options -> inputs
  val check_inputs : tally -> inputs -> unit
  val episode : inputs -> episode
  val wall_ns : episode -> int
  val decisions : episode -> int
  val units : episode -> int
  val latencies : episode -> float array
  val heuristic_ms : episode -> float array
  val same : episode -> episode -> bool
  val corrupt : episode -> unit
  val reference : inputs -> episode -> tally -> quality
  val events : inputs -> int
  val nodes_per_decision : inputs -> int
  val domains : inputs -> int
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("fleet-poisson", (module Fleet));
    ("power-updates", (module Power_updates));
    ("scale-minpower", (module Scale_minpower));
  ]

(* A repeated episode must reproduce the first one's placements. *)
let check_repeat (type e) (module W : WORKLOAD with type episode = e) tally (first : e) ep =
  let ok = W.same first ep in
  for _ = 1 to W.decisions ep do
    record tally ok (lazy "a repeated episode changed its placements")
  done

let end_to_end (module W : WORKLOAD) opts tally =
  let setup_s, setups, inputs = timed_setup (fun () -> W.setup opts) in
  W.check_inputs tally inputs;
  let lat = samples () in
  let units = ref 0 and wall = ref 0 and first = ref None and rss = ref 0. in
  repeat_until opts (fun () ->
      let ep = W.episode inputs in
      Array.iter (push lat) (W.latencies ep);
      units := !units + W.units ep;
      wall := !wall + W.wall_ns ep;
      match !first with
      | None ->
          (* Peak through set-up and one episode: later episodes add
             only heap growth that depends on how many fit the run. *)
          rss := peak_rss_mb ();
          first := Some ep
      | Some f -> check_repeat (module W) tally f ep);
  let first = Option.get !first in
  if opts.corrupt then W.corrupt first;
  (* The reference pass times the baseline heuristic: start it from the
     same heap state however many episodes ran. *)
  Gc.compact ();
  let q = W.reference inputs first tally in
  let lat = to_array lat in
  let n = Array.length lat in
  [
    metric ~samples:setups "setup_s" "s" setup_s;
    metric ~samples:n "decision_p50_ms" "ms" (quantile 0.5 lat);
    metric ~samples:n "decision_p90_ms" "ms" (quantile 0.9 lat);
    metric ~samples:!units "decisions_per_s" "1/s" (float_of_int !units /. s_of_ns !wall);
    metric "peak_rss_mb" "MB" !rss;
    metric ~samples:q.checked "reconfig_cost" "cost" q.reconfig_cost;
    metric ~samples:q.checked "power" "power" q.power;
    metric ~samples:q.checked "heuristic_ratio" "ratio" (q.heuristic_value /. q.exact_value);
    metric ~samples:q.checked "serveable_share" "share" (1. -. ratio q.unserveable q.checked);
    metric ~samples:tally.attempted "correct_share" "share"
      (1. -. ratio tally.failed tally.attempted);
  ]

(* Metrics of one layer call, read off the traced episode [l]. *)
let span_metrics (type i) (module W : WORKLOAD with type inputs = i) (inputs : i) (l : ledger)
    ~decisions =
  let per_decision_ms ns = ms_of_ns ns /. float_of_int decisions in
  let per_call name total = ratio total (calls l name) in
  let step_ns = total_ns l "bench.forest.step" in
  let shard_solves = if step_ns = 0 then [||] else durations_ms l "engine.solve" in
  let slice = row l "bench.trace.slice" in
  let slice_words f = match slice with Some r -> float_of_int (f r) *. 1e-6 | None -> 0. in
  let mb words = float_of_int words *. 8e-6 in
  [
    metric "trace.slice_s" "s" (s_of_ns (total_ns l "bench.trace.slice"));
    metric "trace.slice_minor_mw" "Mword"
      (slice_words (fun r -> r.Replica_obs.Profile.total_minor_w));
    metric "trace.slice_major_mw" "Mword"
      (slice_words (fun r -> r.Replica_obs.Profile.total_major_w));
    metric "forest.step_self_ms" "ms" (per_decision_ms (self_ns l "bench.forest.step"));
    metric "par.busy_share" "share"
      (if step_ns = 0 then 0.
       else float_of_int (total_ns l "engine.epoch") /. float_of_int (W.domains inputs * step_ns));
    metric ~samples:(Array.length shard_solves) "forest.shard_solve_p50_ms" "ms"
      (quantile 0.5 shard_solves);
    metric ~samples:(Array.length shard_solves) "forest.shard_solve_p99_ms" "ms"
      (quantile 0.99 shard_solves);
  ]
  @ List.map
      (fun phase ->
        metric ("engine." ^ phase ^ "_ms") "ms" (per_decision_ms (total_ns l ("engine." ^ phase))))
      [ "demand_diff"; "policy"; "solve"; "apply" ]
  @ [
      metric "engine.changed_nodes" "count"
        (float_of_int (sum_int_arg l "engine.demand_diff" "changed"));
      metric "engine.dirty_nodes" "count"
        (float_of_int (sum_int_arg l "engine.demand_diff" "dirty"));
      metric "engine.reconfigurations" "count"
        (float_of_int (sum_int_arg l "engine.apply" "reconfigured"));
      metric "engine.solve_useful_ratio" "share"
        (ratio (sum_int_arg l "engine.solve" "solved") (calls l "engine.solve"));
      metric "dp_power.tables_s" "s"
        (s_of_ns (total_ns l "dp_power.tables") /. float_of_int decisions);
      metric "dp_power.enumerate_s" "s"
        (s_of_ns (total_ns l "dp_power.enumerate") /. float_of_int decisions);
      metric "dp_power.alloc_mb_per_solve" "MB"
        (mb (int_of_float (per_call "dp_power.solve" (total_words l "dp_power.solve"))));
      metric "gr_power.greedy_passes" "count"
        (ratio (calls l "greedy.solve") (calls l "bench.core.gr_power"));
      metric "gr_power.alloc_mb_per_solve" "MB"
        (mb (int_of_float (per_call "bench.core.gr_power" (total_words l "bench.core.gr_power"))));
    ]

let per_layer (module W : WORKLOAD) opts tally =
  let inputs, setup_ledger = traced (fun () -> W.setup opts) in
  W.check_inputs tally inputs;
  (* Untraced episode: deterministic counts and GC activity. *)
  Stats_counters.reset ();
  let g0 = gc_mark () in
  let t0 = now_ns () in
  let first = W.episode inputs in
  let untraced_ns = now_ns () - t0 in
  let g1 = gc_mark () in
  let counts = dp_withpre_metrics () @ dp_power_metrics () in
  let decisions = W.decisions first in
  (* Traced twin, then further untraced/traced pairs while time is
     left, for the tracing overhead. *)
  let ep, l = traced (fun () -> W.episode inputs) in
  check_repeat (module W) tally first ep;
  check_trace tally ~tiny:opts.tiny [ setup_ledger; l ];
  let overheads = samples () in
  push overheads ((float_of_int l.wall_ns /. float_of_int untraced_ns) -. 1.);
  let start = now_ns () in
  while s_of_ns (now_ns () - start) < opts.seconds -. s_of_ns (untraced_ns + l.wall_ns) do
    let t0 = now_ns () in
    let u = W.episode inputs in
    let u_ns = now_ns () - t0 in
    let ep, l' = traced (fun () -> W.episode inputs) in
    check_repeat (module W) tally first u;
    check_repeat (module W) tally first ep;
    push overheads ((float_of_int l'.wall_ns /. float_of_int u_ns) -. 1.)
  done;
  if opts.corrupt then W.corrupt first;
  let q = W.reference inputs first tally in
  let baseline = Array.append (W.heuristic_ms first) q.heuristic_ms in
  let per_decision n = float_of_int n /. float_of_int decisions in
  [
    metric "trace.events" "count" (float_of_int (W.events inputs));
    metric "trace.generate_s" "s" (s_of_ns (total_ns setup_ledger "bench.trace.generate"));
    metric "tree.nodes_per_decision" "count" (float_of_int (W.nodes_per_decision inputs));
  ]
  @ span_metrics (module W) inputs l ~decisions
  @ [
      metric ~samples:(Array.length baseline) "core.baseline_p50_ms" "ms"
        (quantile 0.5 baseline);
    ]
  @ counts
  @ [
      metric "gc.minor_collections_per_decision" "count" (per_decision (g1.minor - g0.minor));
      metric "gc.major_collections_per_decision" "count" (per_decision (g1.major - g0.major));
      metric ~samples:overheads.len "obs.tracing_overhead_share" "share"
        (median (to_array overheads));
    ]
  @ ledger_metrics [ setup_ledger; l ]

(* --- Output ------------------------------------------------------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result tally metrics =
  List.iter
    (fun m -> Printf.printf "%-36s %20s %-6s n=%d\n" m.name (json_number m.value) m.unit_ m.samples)
    metrics;
  Option.iter (Printf.printf "first failure: %s\n") tally.first_failure;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and corrupt = ref false in
  let domains = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " self-test input sizes");
      ("--corrupt", Arg.Set corrupt, " damage one placement before the reference check");
      ("--domains", Arg.Set_int domains, "N fleet shard fan-out (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w ->
      let opts =
        { seed = !seed; seconds = !seconds; tiny = !tiny; corrupt = !corrupt; domains = !domains }
      in
      let tally = tally () in
      let metrics =
        if !trace = 1 then per_layer w opts tally else end_to_end w opts tally
      in
      print_result tally metrics
