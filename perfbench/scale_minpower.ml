(* scale-minpower: independent one-shot MinPower instances at large N.

   Each instance is a sparse §5 tree with three pre-existing servers and
   a two-mode ladder that tracks the total load ([load/4; load/2]), the
   large-N ladder of the scaling sweeps, so dp-power tables stay a few
   cells per node and per-node constants dominate. One client cycles
   through a fixed pool: each decision is a cold exact dp-power solve,
   followed by the paper's GR baseline (gr-power) on the same instance,
   timed separately. *)

open Common

type instance = { problem : Problem.t; modes : Modes.t; power : Power.t }
type inputs = { pool : instance array }

let dp_power = Option.get (Registry.find "dp-power")
let gr_power = Option.get (Registry.find "gr-power")

let setup opts =
  let size, nodes = if opts.tiny then (2, 60) else (64, 1000) in
  let pool =
    Array.init size (fun i ->
        let rng = Rng.derive (Rng.create opts.seed) i in
        let tree =
          span "bench.tree.generate" (fun () ->
              let bare =
                Generator.random rng
                  (Workload.profile Workload.Fat ~nodes ~max_requests:2)
              in
              Generator.add_pre_existing rng ~mode:2 bare 3)
        in
        let load = max 4 (Tree.total_requests tree) in
        let modes = Modes.make [ load / 4; load / 2 ] in
        let power = Power.paper_exp3 ~modes in
        let cost = Cost.paper_cheap ~modes:2 in
        { problem = Problem.min_power tree ~modes ~power ~cost (); modes; power })
  in
  { pool }

type answer = { exact : Solver.outcome option; heuristic : Solver.outcome option }

type episode = {
  answers : (answer, string) result array;
  dp_ms : float array;
  gr_ms : float array;
  wall_ns : int;  (** dp-power solves only *)
}

let solve name s problem =
  let t0 = now_ns () in
  let r = span name (fun () -> Solver.run s problem Solver.default_request) in
  (r, now_ns () - t0)

(* One pass over the pool. *)
let episode inp =
  let wall = ref 0 in
  let dp_ms = Array.make (Array.length inp.pool) 0. in
  let gr_ms = Array.make (Array.length inp.pool) 0. in
  let answers =
    Array.mapi
      (fun i inst ->
        let dp, dp_ns = solve "bench.core.dp_power" dp_power inst.problem in
        let gr, gr_ns = solve "bench.core.gr_power" gr_power inst.problem in
        wall := !wall + dp_ns;
        dp_ms.(i) <- ms_of_ns dp_ns;
        gr_ms.(i) <- ms_of_ns gr_ns;
        match (dp, gr) with
        | Ok exact, Ok heuristic -> Ok { exact; heuristic }
        | Error e, _ | _, Error e -> Error e)
      inp.pool
  in
  { answers; dp_ms; gr_ms; wall_ns = !wall }

let decisions ep = Array.length ep.dp_ms
let units = decisions
let latencies ep = ep.dp_ms
let heuristic_ms ep = ep.gr_ms

let solution_of = function
  | Ok { exact = Some o; _ } -> Some o.Solver.solution
  | _ -> None

let same a b =
  Array.for_all2 (fun x y -> Option.equal Solution.equal (solution_of x) (solution_of y)) a.answers
    b.answers

let corrupt ep =
  ep.answers.(0) <-
    Result.map
      (fun a ->
        let empty o = { o with Solver.solution = Solution.empty } in
        { a with exact = Option.map empty a.exact })
      ep.answers.(0)

(* Both answers must validate, the reported power must match the
   placement's, and the exact optimum must not lose to GR. *)
let reference inp ep tally =
  let cost_sum = ref 0. and power_sum = ref 0. in
  let heur_sum = ref 0. and exact_sum = ref 0. in
  Array.iteri
    (fun i answer ->
      let inst = inp.pool.(i) in
      let tree = inst.problem.Problem.tree and w = inst.problem.Problem.w in
      let ok = ref true and why = ref "" in
      let bad msg = if !ok then (ok := false; why := msg) in
      let power_of (o : Solver.outcome) =
        Solution.power tree inst.modes inst.power o.Solver.solution
      in
      (match answer with
      | Error e -> bad ("solver refused: " ^ e)
      | Ok { exact = Some dp; heuristic = Some gr } ->
          if not (Solution.is_valid tree ~w dp.Solver.solution) then
            bad (Printf.sprintf "instance %d: dp-power placement invalid" i)
          else if not (Solution.is_valid tree ~w gr.Solver.solution) then
            bad (Printf.sprintf "instance %d: gr-power placement invalid" i)
          else begin
            let exact = power_of dp and heuristic = power_of gr in
            let reported = Option.value dp.Solver.power ~default:nan in
            if not (Float.abs (reported -. exact) <= 1e-9 *. (1. +. exact)) then
              bad
                (Printf.sprintf "instance %d: dp-power reports %g, placement draws %g" i
                   reported exact);
            if not (exact <= heuristic +. 1e-9) then
              bad (Printf.sprintf "instance %d: dp-power %g above gr-power %g" i exact heuristic);
            cost_sum := !cost_sum +. Option.value dp.Solver.cost ~default:nan;
            power_sum := !power_sum +. exact;
            exact_sum := !exact_sum +. exact;
            heur_sum := !heur_sum +. heuristic
          end
      | Ok _ -> bad (Printf.sprintf "instance %d: no placement found" i));
      record tally !ok (lazy !why))
    ep.answers;
  {
    heuristic_ms = [||];
    reconfig_cost = !cost_sum;
    power = !power_sum;
    heuristic_value = !heur_sum;
    exact_value = !exact_sum;
    checked = Array.length ep.answers;
    unserveable = 0;
  }

let events _ = 0
let nodes_per_decision inp = Tree.size inp.pool.(0).problem.Problem.tree
let domains _ = 1
let check_inputs _ _ = ()
let wall_ns ep = ep.wall_ns
