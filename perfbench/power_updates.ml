(* power-updates: the paper's update strategy on §5.2-sized trees.

   Each epoch nudges one random client's demand by one request; one
   client steps an incremental Engine under the Min_power objective
   (Exp. 3 power model, modes {5, 10}, cheap modal cost), so every
   epoch's placement becomes the next epoch's pre-existing set and
   dp-power re-optimises it. The episode walks 64 independent trees in
   turn, so one run's figures average over tree shapes instead of
   resting on a single draw. *)

open Common
module Engine = Replica_engine.Engine
module Timeline = Replica_engine.Timeline

let w = Workload.capacity
let modes = Modes.make [ w / 2; w ]
let power = Power.paper_exp3 ~modes
let cost = Cost.paper_cheap ~modes:2
let objective = Engine.Min_power { modes; power; cost; bound = infinity }
let max_requests = 5

(* [trees] demand sequences, one per tree, each [epochs] long. *)
type inputs = { demands : Tree.t array array }

(* The starting trees are drawn from this fixed seed and only the
   nudges from --seed: one decision's cost depends on its tree far more
   than on the nudge, and with 64 trees drawn per seed the median
   decision still moved by about 15 % from seed to seed. *)
let tree_seed = 52

(* Move one random client's demand by one request, staying within
   [1, max_requests]. *)
let nudge rng tree =
  let loaded =
    List.filter (fun j -> Tree.clients tree j <> []) (List.init (Tree.size tree) Fun.id)
  in
  let j = List.nth loaded (Rng.int rng (List.length loaded)) in
  let cs = Tree.clients tree j in
  let c = Rng.int rng (List.length cs) in
  let up = Rng.bool rng in
  Tree.with_clients tree (fun i ->
      if i <> j then Tree.clients tree i
      else
        List.mapi
          (fun k r ->
            if k <> c then r
            else if (up && r < max_requests) || r = 1 then r + 1
            else r - 1)
          cs)

let setup opts =
  let trees, nodes, epochs = if opts.tiny then (2, 12, 6) else (64, 50, 16) in
  let profile = Workload.profile Workload.Fat ~nodes ~max_requests in
  let demands =
    Array.init trees (fun k ->
        let shape = Rng.derive (Rng.create tree_seed) k in
        let base = span "bench.tree.generate" (fun () -> Generator.random shape profile) in
        let rng = Rng.derive (Rng.create opts.seed) k in
        let seq = Array.make epochs base in
        for e = 1 to epochs - 1 do
          seq.(e) <- nudge rng seq.(e - 1)
        done;
        seq)
  in
  { demands }

let config solver = Engine.config ~policy:Update_policy.Systematic ~solver ~w objective

type episode = { timelines : Timeline.entry array array; step_ms : float array; wall_ns : int }

let episode inp =
  let lat = samples () in
  let t0 = now_ns () in
  let timelines =
    Array.map
      (fun seq ->
        let engine = Engine.create (config Engine.Incremental) in
        Array.map
          (fun demand ->
            let s0 = now_ns () in
            let entry = span "bench.engine.step" (fun () -> Engine.step engine demand) in
            push lat (ms_of_ns (now_ns () - s0));
            entry)
          seq)
      inp.demands
  in
  { timelines; step_ms = to_array lat; wall_ns = now_ns () - t0 }

let decisions ep = Array.length ep.step_ms
let units = decisions
let latencies ep = ep.step_ms
let heuristic_ms _ = [||]

let placements ep =
  Array.map (Array.map (fun (e : Timeline.entry) -> e.Timeline.servers)) ep.timelines

let same a b =
  Array.for_all2 (Array.for_all2 Solution.equal) (placements a) (placements b)

let corrupt ep =
  let e = ep.timelines.(0).(0) in
  ep.timelines.(0).(0) <- { e with Timeline.servers = Solution.empty }

let gr_power = Option.get (Registry.find "gr-power")

(* Modes the engine carries into the next epoch: each server's mode
   under the demand it was placed for. *)
let modes_in_force tree sol =
  List.map
    (fun (j, load) -> (j, Modes.mode_of_load modes load))
    (Solution.evaluate tree sol).Solution.loads

(* The differential oracle: the same epochs replayed with full
   re-solves must give identical placements. Each epoch is also re-posed
   from outside and answered by the GR baseline, which must not beat
   the exact power. *)
let reference inp ep tally =
  let heur = samples () in
  let cost_sum = ref 0. and power_sum = ref 0. in
  let heur_sum = ref 0. and exact_sum = ref 0. in
  let checked = ref 0 in
  Array.iteri
    (fun t seq ->
      let full = Engine.run (config Engine.Full) (Array.to_list seq) in
      let full = Array.of_list full.Timeline.entries in
      (* Each epoch as the engine posed it: this demand, with the
         oracle's previous placement and its modes as pre-existing. *)
      let posed = Array.copy seq in
      Array.iteri
        (fun k demand ->
          let pre =
            if k = 0 then []
            else modes_in_force seq.(k - 1) full.(k - 1).Timeline.servers
          in
          posed.(k) <- Tree.with_pre_existing demand pre)
        seq;
      let problems = Array.map (fun p -> Problem.make p ~w objective) posed in
      let solve p = Solver.run gr_power p Solver.default_request in
      push heur (mean_ms solve problems);
      let answers = Array.map solve problems in
      Array.iteri
        (fun k demand ->
          incr checked;
          let e = ep.timelines.(t).(k) in
          let sol = e.Timeline.servers in
          let ok = ref true and why = ref "" in
          let bad msg = if !ok then (ok := false; why := msg) in
          if not (Solution.equal sol full.(k).Timeline.servers) then
            bad
              (Printf.sprintf "tree %d epoch %d: incremental placement differs from full re-solve"
                 t (k + 1));
          (match Solution.validate demand ~w sol with
          | Error _ -> bad (Printf.sprintf "tree %d epoch %d: placement fails validation" t (k + 1))
          | Ok _ -> ());
          let exact = Option.value e.Timeline.power ~default:nan in
          (match answers.(k) with
          | Ok (Some g) ->
              let h = Option.value g.Solver.power ~default:nan in
              if not (Solution.is_valid demand ~w g.Solver.solution) then
                bad (Printf.sprintf "tree %d epoch %d: gr-power placement invalid" t (k + 1));
              if not (exact <= h +. 1e-9) then
                bad
                  (Printf.sprintf "tree %d epoch %d: dp-power %g above gr-power %g" t (k + 1)
                     exact h);
              heur_sum := !heur_sum +. h;
              exact_sum := !exact_sum +. exact
          | Ok None -> bad (Printf.sprintf "tree %d epoch %d: gr-power found nothing" t (k + 1))
          | Error m -> bad ("gr-power refused: " ^ m));
          let bill = Solution.modal_cost posed.(k) modes cost sol in
          if Float.abs (bill -. e.Timeline.step_cost) > 1e-9 *. (1. +. bill) then
            bad (Printf.sprintf "tree %d epoch %d: engine cost %g, reference %g" t (k + 1)
                   e.Timeline.step_cost bill);
          cost_sum := !cost_sum +. e.Timeline.step_cost;
          power_sum := !power_sum +. exact;
          record tally !ok (lazy !why))
        seq)
    inp.demands;
  {
    heuristic_ms = to_array heur;
    reconfig_cost = !cost_sum;
    power = !power_sum;
    heuristic_value = !heur_sum;
    exact_value = !exact_sum;
    checked = !checked;
    unserveable = 0;
  }

let events _ = 0
let nodes_per_decision inp = Tree.size inp.demands.(0).(0)
let domains _ = 1
let check_inputs _ _ = ()
let wall_ns ep = ep.wall_ns
