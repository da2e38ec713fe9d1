(* fleet-poisson: a decoupled forest of shards served epoch by epoch.

   One client drives a Forest_engine: it slices the merged Poisson
   stream onto the shared window grid, then issues one fleet step per
   window, each after the previous returned. Every shard re-solves with
   incremental dp-withpre (systematic policy); the shard fan-out is
   sequential unless --domains asks for more. The paper's GR baseline
   for the cost objective (the greedy of its reference [19], blind to
   pre-existing servers) answers the same shard problems in the untimed
   reference pass. *)

open Common
module F = Replica_forest.Forest
module FT = Replica_forest.Forest_trace
module FE = Replica_forest.Forest_engine
module FTl = Replica_forest.Forest_timeline
module Engine = Replica_engine.Engine

let w = Workload.capacity
let cost = Cost.basic ~create:0.5 ~delete:0.25 ()
let modes = Modes.make [ w / 2; w ]
let power = Power.paper_exp3 ~modes
let window = 1.

type inputs = { forest : F.t; stream : FT.t; domains : int }

let setup opts =
  let shards, nodes, horizon =
    if opts.tiny then (4, 20, 6.) else (50, 100, 60.)
  in
  let profile = Workload.profile Workload.Fat ~nodes ~max_requests:5 in
  let forest =
    span "bench.tree.generate" (fun () ->
        F.generate
          { F.trees = shards; objects = shards; servers = 2 * nodes; profile;
            seed = opts.seed })
  in
  let stream =
    span "bench.trace.generate" (fun () ->
        FT.generate forest ~horizon ~seed:(opts.seed + 1_000_003) FT.Poisson)
  in
  { forest; stream; domains = opts.domains }

let config domains =
  {
    FE.engine =
      Engine.config ~policy:Update_policy.Systematic ~solver:Engine.Incremental
        ~w (Engine.Min_cost cost);
    coupling = false;
    domains;
  }

type episode = {
  views : Tree.t array array;  (** [epoch][shard] demand views *)
  entries : FTl.entry array;
  placements : Solution.t array array;  (** in force after each epoch *)
  step_ms : float array;
  wall_ns : int;  (** slicing plus every step *)
}

let episode inp =
  let t0 = now_ns () in
  let grid = span "bench.trace.slice" (fun () -> FT.epochs inp.stream inp.forest ~window) in
  let engine = FE.create inp.forest (config inp.domains) in
  let steps =
    List.map
      (fun views ->
        let s0 = now_ns () in
        let entry = span "bench.forest.step" (fun () -> FE.step engine views) in
        let dt = now_ns () - s0 in
        (Array.of_list views, entry, FE.placements engine, ms_of_ns dt))
      grid
  in
  let wall_ns = now_ns () - t0 in
  let steps = Array.of_list steps in
  {
    views = Array.map (fun (v, _, _, _) -> v) steps;
    entries = Array.map (fun (_, e, _, _) -> e) steps;
    placements = Array.map (fun (_, _, p, _) -> p) steps;
    step_ms = Array.map (fun (_, _, _, d) -> d) steps;
    wall_ns;
  }

let decisions ep = Array.length ep.step_ms
let units ep = Array.fold_left (fun n v -> n + Array.length v) 0 ep.views
let latencies ep = ep.step_ms
let heuristic_ms _ = [||]

let same a b =
  Array.length a.placements = Array.length b.placements
  && Array.for_all2 (Array.for_all2 Solution.equal) a.placements b.placements

(* Replace the first valid shard placement with the empty set. *)
let corrupt ep =
  let hit = ref false in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun o sol ->
          if (not !hit) && Solution.cardinal sol > 0
             && Solution.is_valid ep.views.(k).(o) ~w sol
          then begin
            row.(o) <- Solution.empty;
            hit := true
          end)
        row)
    ep.placements

let greedy = Option.get (Registry.find "greedy")

(* Every shard-epoch is re-posed from outside — this epoch's demand
   with last epoch's placement as the pre-existing set — and answered
   by the greedy baseline. A serveable epoch's placement must validate
   and cost no more than the baseline's; an epoch the baseline cannot
   serve must be one the engine flagged invalid. *)
let reference _inp ep tally =
  let heur = samples () in
  let cost_sum = ref 0. and power_sum = ref 0. in
  let heur_sum = ref 0. and exact_sum = ref 0. in
  let checked = ref 0 and unserveable = ref 0 in
  Array.iteri
    (fun k views ->
      let ok = ref true and why = ref "" in
      let bad msg = if !ok then (ok := false; why := msg) in
      let step_cost = ref 0. and invalid = ref 0 in
      let posed =
        Array.mapi
          (fun o view ->
            let prev = if k = 0 then Solution.empty else ep.placements.(k - 1).(o) in
            Tree.with_pre_existing view (List.map (fun j -> (j, 1)) (Solution.nodes prev)))
          views
      in
      let problems = Array.map (fun p -> Problem.min_cost p ~w ~cost) posed in
      let solve p = Solver.run greedy p Solver.default_request in
      push heur (mean_ms solve problems);
      let answers = Array.map solve problems in
      Array.iteri
        (fun o view ->
          incr checked;
          let sol = ep.placements.(k).(o) in
          match answers.(o) with
          | Error e -> bad ("greedy refused: " ^ e)
          | Ok None ->
              incr unserveable;
              incr invalid;
              if Solution.is_valid view ~w sol then
                bad
                  (Printf.sprintf "epoch %d shard %d: valid placement on unserveable demand"
                     (k + 1) o)
          | Ok (Some g) -> (
              match Solution.validate view ~w sol with
              | Error _ ->
                  bad (Printf.sprintf "epoch %d shard %d: placement fails validation" (k + 1) o)
              | Ok _ ->
                  let exact = Solution.basic_cost posed.(o) cost sol in
                  let heuristic = Solution.basic_cost posed.(o) cost g.Solver.solution in
                  if exact > heuristic +. 1e-9 then
                    bad (Printf.sprintf "epoch %d shard %d: dp-withpre cost %g above greedy %g"
                           (k + 1) o exact heuristic);
                  step_cost := !step_cost +. exact;
                  exact_sum := !exact_sum +. exact;
                  heur_sum := !heur_sum +. heuristic;
                  power_sum := !power_sum +. Solution.power view modes power sol))
        views;
      let entry = ep.entries.(k) in
      if entry.FTl.invalid_shards <> !invalid then
        bad (Printf.sprintf "epoch %d: engine reports %d invalid shards, reference %d"
               (k + 1) entry.FTl.invalid_shards !invalid);
      if Float.abs (entry.FTl.step_cost -. !step_cost) > 1e-6 *. (1. +. !step_cost) then
        bad (Printf.sprintf "epoch %d: engine cost %g, reference %g" (k + 1)
               entry.FTl.step_cost !step_cost);
      cost_sum := !cost_sum +. entry.FTl.step_cost;
      record tally !ok (lazy !why))
    ep.views;
  {
    heuristic_ms = to_array heur;
    reconfig_cost = !cost_sum;
    power = !power_sum;
    heuristic_value = !heur_sum;
    exact_value = !exact_sum;
    checked = !checked;
    unserveable = !unserveable;
  }

let events inp = FT.total_events inp.stream
let nodes_per_decision inp = F.total_nodes inp.forest
let domains inp = inp.domains

let check_inputs tally inp =
  record tally (FT.conservation inp.stream) (lazy "merged stream lost events")
let wall_ns ep = ep.wall_ns
