(* The online reconfiguration engine.

   The load-bearing suite is differential: over 100+ seeded trace-driven
   runs, the incremental engine (subtree tables cached under demand
   fingerprints, only dirty paths recomputed) must pick bit-identical
   placements to the full re-solve it replaces — in cost mode
   (Dp_withpre) and in power mode (Dp_power). *)

open Replica_tree
open Replica_core
open Replica_engine
module Json = Replica_obs.Json
open Helpers

let policies =
  [|
    Update_policy.Systematic;
    Update_policy.Lazy;
    Update_policy.Periodic 2;
    Update_policy.Drift 0.15;
  |]

(* Traces come from the shared [Helpers.workload_trace] generator. *)

(* One seeded run under both solvers; every epoch's placement (and the
   decision/billing around it) must agree. *)
let differential_run ~seed ~objective_of ~w =
  let make rng = small_tree rng ~nodes:(6 + (seed mod 7)) ~max_requests:4 in
  let tree = make (Rng.create seed) in
  let rng = Rng.create (seed * 31) in
  let trace = workload_trace rng tree ~kind:(seed mod 3) ~horizon:8. in
  let policy = policies.(seed mod Array.length policies) in
  let run solver =
    let cfg = Engine.config ~policy ~solver ~w (objective_of ()) in
    Engine.run_trace cfg tree trace ~window:1.
  in
  let full = run Engine.Full in
  let incremental = run Engine.Incremental in
  check ci
    (Printf.sprintf "seed %d: same epoch count" seed)
    (List.length full.Timeline.entries)
    (List.length incremental.Timeline.entries);
  List.iter2
    (fun (a : Timeline.entry) (b : Timeline.entry) ->
      let label fmt = Printf.sprintf fmt seed a.Timeline.epoch in
      check cb
        (label "seed %d epoch %d: identical placement")
        true
        (Solution.equal a.Timeline.servers b.Timeline.servers);
      check cb
        (label "seed %d epoch %d: same decision")
        a.Timeline.reconfigured b.Timeline.reconfigured;
      check cf
        (label "seed %d epoch %d: same bill")
        a.Timeline.step_cost b.Timeline.step_cost;
      check cb (label "seed %d epoch %d: same validity") a.Timeline.valid
        b.Timeline.valid)
    full.Timeline.entries incremental.Timeline.entries

let test_differential_cost () =
  (* >= 100 seeded runs (the PR's acceptance bar) across all three
     workloads and all four update policies. *)
  let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
  for seed = 1 to 110 do
    differential_run ~seed ~w:10
      ~objective_of:(fun () -> Engine.Min_cost cost)
  done

let test_differential_power () =
  let objective () =
    Engine.Min_power
      {
        modes = modes_2;
        power = power_exp3;
        cost = cost_cheap;
        bound = infinity;
      }
  in
  for seed = 1 to 20 do
    differential_run ~seed ~w:10 ~objective_of:objective
  done

(* --- memo storage lifecycle at fleet size ---

   The trace differentials above use trees far too small for the memo's
   arena to reach its compaction threshold, so they never exercise
   compaction or the recycling of evicted tables. This one re-solves a
   fat 100-node tree under Poisson churn, each epoch starting from the
   previous placement, for enough epochs that the memo compacts several
   times, and switches w (the mode ladder, for power) half way so the
   memo's reset runs too. Memo-less and incremental answers must agree
   on every epoch. The power case thins the demand (fewer, lighter
   clients on the same fat shape): its state space grows with the
   carried pre-existing servers, and at the paper's full demand one
   epoch takes seconds. *)

let churn_epochs = 48

let churn_views ?(profile = Generator.fat ()) seed =
  let rng = Rng.create seed in
  let tree = Generator.random rng profile in
  let trace =
    Replica_trace.Arrivals.poisson rng tree
      ~horizon:(float_of_int churn_epochs)
  in
  Replica_trace.Epochs.epochs trace tree ~window:1.

(* [solve ~memo epoch tree] answers one epoch, [tree] carrying the
   pre-existing set; [pre epoch view solution] turns the placement
   chosen at [epoch] on [view] into the next epoch's set. After each
   epoch the previous epoch's tree is solved again through the memo:
   its tables are still cached, and the end of this epoch's solve may
   just have compacted them, so that answer is assembled from compacted
   placements (Poisson churn alone rarely reuses a cached table). *)
let memo_churn ?profile ~seed ~solve ~pre () =
  let carried = ref [] and last = ref None in
  List.iteri
    (fun epoch view ->
      let tree = Tree.with_pre_existing view !carried in
      let agree what full inc =
        let label check_what =
          Printf.sprintf "seed %d epoch %d, %s: %s" seed epoch what check_what
        in
        match (full, inc) with
        | None, None -> ()
        | Some (full, full_values), Some (inc, inc_values) ->
            check solution_testable (label "identical placement") full inc;
            check (Alcotest.list cf) (label "identical objective values")
              full_values inc_values
        | Some _, None | None, Some _ -> Alcotest.fail (label "feasibility differs")
      in
      let full = solve ~memo:false epoch tree in
      agree "this epoch" full (solve ~memo:true epoch tree);
      Option.iter
        (fun (e, t, answer) -> agree "previous epoch again" answer (solve ~memo:true e t))
        !last;
      last := Some (epoch, tree, full);
      Option.iter (fun (sol, _) -> carried := pre epoch view sol) full)
    (churn_views ?profile seed)

let c_compactions = Stats_counters.counter "dp_withpre.memo_compactions"
let c_recycled = Stats_counters.counter "dp_withpre.memo_recycled"
let c_power_recycled = Stats_counters.counter "dp_power.memo_recycled"

let prop_memo_churn_cost =
  qcheck_case ~count:3 "dp-withpre memo compacts and recycles, answers unchanged"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
      let memo = Dp_withpre.memo () in
      let compactions = Stats_counters.value c_compactions
      and recycled = Stats_counters.value c_recycled in
      memo_churn ~seed
        ~pre:(fun _ _ placement ->
          List.map (fun j -> (j, 1)) (Solution.nodes placement))
        ~solve:(fun ~memo:use epoch tree ->
          let w = if epoch < churn_epochs / 2 then 10 else 12 in
          let memo = if use then Some memo else None in
          Option.map
            (fun (r : Dp_withpre.result) -> (r.solution, [ r.cost ]))
            (Dp_withpre.solve ?memo tree ~w ~cost))
        ();
      Stats_counters.value c_compactions - compactions >= 2
      && Stats_counters.value c_recycled > recycled)

let prop_memo_churn_power =
  qcheck_case ~count:2 "dp-power memo under churn and a ladder change, answers unchanged"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let ladder epoch =
        if epoch < churn_epochs / 2 then modes_2 else Modes.make [ 6; 12 ]
      in
      let memo = Dp_power.memo () in
      let recycled = Stats_counters.value c_power_recycled in
      let profile =
        { (Generator.fat ()) with client_probability = 0.2; max_requests = 2 }
      in
      memo_churn ~profile ~seed
        ~pre:(fun epoch view placement ->
          let modes = ladder epoch in
          List.map
            (fun (j, load) -> (j, Modes.mode_of_load modes load))
            (Solution.evaluate view placement).Solution.loads)
        ~solve:(fun ~memo:use epoch tree ->
          let modes = ladder epoch in
          let memo = if use then Some memo else None in
          Option.map
            (fun (r : Dp_power.result) -> (r.solution, [ r.power; r.cost ]))
            (Dp_power.solve tree ~modes
               ~power:(Power.paper_exp3 ~modes)
               ~cost:(Cost.paper_cheap ~modes:2) ?memo ()))
        ();
      Stats_counters.value c_power_recycled > recycled)

(* --- the paper's update strategy at power-updates size ---

   One N = 50 fat tree (1-5 requests per client), modes {5, 10}, nudged
   by one request on one client per epoch for 40 epochs; each epoch's
   placement, with its modes in force, is the next epoch's pre-existing
   set. The memo must give the memo-less placement, power and cost on
   every epoch, and a warm re-solve must hand the GC little beyond its
   answer: the memo's tables are copies in recycled storage and its
   scratch is kept from solve to solve. *)

let nudge rng tree =
  let loaded =
    List.filter (fun j -> Tree.clients tree j <> []) (List.init (Tree.size tree) Fun.id)
  in
  let j = List.nth loaded (Rng.int rng (List.length loaded)) in
  let c = Rng.int rng (List.length (Tree.clients tree j)) in
  let up = Rng.bool rng in
  Tree.with_clients tree (fun i ->
      if i <> j then Tree.clients tree i
      else
        List.mapi
          (fun k r ->
            if k <> c then r else if (up && r < 5) || r = 1 then r + 1 else r - 1)
          (Tree.clients tree i))

(* Words allocated by [f ()], minor and major heap alike. *)
let allocated_words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_power_updates_shape () =
  let rng = Rng.create 14 in
  let tree =
    Generator.random rng
      (Replica_experiments.Workload.profile Replica_experiments.Workload.Fat
         ~nodes:50 ~max_requests:5)
  in
  let power = power_exp3 and cost = cost_cheap in
  let memo = Dp_power.memo () in
  let demand = ref tree and pre = ref [] and warm = ref [] in
  for epoch = 0 to 40 do
    if epoch > 0 then demand := nudge rng !demand;
    let posed = Tree.with_pre_existing !demand !pre in
    let solve memo = Dp_power.solve posed ~modes:modes_2 ~power ~cost ?memo () in
    let full = Option.get (solve None) in
    let inc, words = allocated_words (fun () -> solve (Some memo)) in
    let inc = Option.get inc in
    if epoch > 0 then warm := words :: !warm;
    let label what = Printf.sprintf "epoch %d: %s" epoch what in
    check solution_testable (label "identical placement") full.Dp_power.solution
      inc.Dp_power.solution;
    check cf (label "identical power") full.Dp_power.power inc.Dp_power.power;
    check cf (label "identical cost") full.Dp_power.cost inc.Dp_power.cost;
    pre :=
      List.map
        (fun (j, load) -> (j, Modes.mode_of_load modes_2 load))
        (Solution.evaluate !demand inc.Dp_power.solution).Solution.loads
  done;
  let sorted = List.sort compare !warm in
  let median = List.nth sorted (List.length sorted / 2) in
  if median >= 30_000. then
    Alcotest.failf "median warm re-solve allocates %.0f words (limit 30000)" median

(* --- memo tags in traces ---

   Each incremental DP tags a node's span with its memo outcome, but
   per-node spans are skipped below a subtree size; the tag of a node
   whose own span was skipped must not land on the span enclosing it.
   A traced incremental engine run, read back from its Chrome trace,
   must carry at most one [memo] arg per event, and only on [*.node]
   spans. *)

let traced_run objective =
  let rng = Rng.create 7 in
  let tree =
    Generator.random rng
      (Replica_experiments.Workload.profile Replica_experiments.Workload.Fat
         ~nodes:60 ~max_requests:6)
  in
  let trace =
    Replica_trace.Arrivals.diurnal rng tree ~horizon:12. ~period:24. ~floor:0.25
  in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~solver:Engine.Incremental
      ~w:10 objective
  in
  let module Span = Replica_obs.Span in
  Span.reset ();
  Span.set_enabled true;
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Span.set_enabled false;
        Span.reset ())
      (fun () ->
        ignore (Engine.run_trace cfg tree trace ~window:1.);
        Span.export ())
  in
  match
    Replica_obs.Trace_reader.of_string (Replica_obs.Chrome_trace.to_string spans)
  with
  | Error e -> Alcotest.failf "trace does not read back: %s" e
  | Ok t -> t.Replica_obs.Trace_reader.roots

let check_memo_tags what objective =
  let module TR = Replica_obs.Trace_reader in
  let tagged =
    TR.fold
      (fun n (node : TR.node) ->
        let span = node.TR.span in
        let tags =
          List.length (List.filter (fun (k, _) -> k = "memo") span.Replica_obs.Span.args)
        in
        let name = span.Replica_obs.Span.name in
        if tags > 1 then Alcotest.failf "%s: %s carries %d memo args" what name tags;
        if tags = 1 && not (String.ends_with ~suffix:".node" name) then
          Alcotest.failf "%s: memo arg on %s" what name;
        n + tags)
      0 (traced_run objective)
  in
  check cb (what ^ ": some node spans are memo-tagged") true (tagged > 0)

let test_memo_tags_cost () =
  check_memo_tags "dp-withpre"
    (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))

let test_memo_tags_power () =
  check_memo_tags "dp-power"
    (Engine.Min_power
       { modes = modes_2; power = power_exp3; cost = cost_cheap; bound = infinity })

(* --- unit behaviour --- *)

let drifting_demands tree seed epochs =
  let rng = Rng.create seed in
  List.init epochs (fun _ ->
      Tree.with_clients tree (fun j ->
          List.filter_map
            (fun r ->
              if Rng.bernoulli rng 0.2 then None
              else Some (min 4 (max 1 (r + Rng.int_in_range rng ~min:(-1) ~max:1))))
            (Tree.clients tree j)))

let test_create_validation () =
  let cost = Cost.basic ~create:0.5 ~delete:0.25 () in
  Alcotest.check_raises "w must be positive"
    (Invalid_argument "Engine: w must be positive") (fun () ->
      ignore (Engine.create (Engine.config ~w:0 (Engine.Min_cost cost))));
  Alcotest.check_raises "ladder mismatch"
    (Invalid_argument "Engine: w must equal the mode ladder's maximal capacity")
    (fun () ->
      ignore
        (Engine.create
           (Engine.config ~w:7
              (Engine.Min_power
                 {
                   modes = modes_2;
                   power = power_exp3;
                   cost = cost_cheap;
                   bound = infinity;
                 }))))

let test_systematic_reconfigures_every_epoch () =
  let tree = small_tree (Rng.create 3) ~nodes:8 ~max_requests:3 in
  let demands = drifting_demands tree 11 6 in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.run cfg demands in
  check ci "reconfigured every epoch" 6 t.Timeline.reconfigurations;
  check ci "no invalid epochs" 0 t.Timeline.invalid_epochs;
  List.iter
    (fun (e : Timeline.entry) ->
      check ci
        (Printf.sprintf "epoch %d staleness" e.Timeline.epoch)
        0 e.Timeline.staleness)
    t.Timeline.entries

let test_incremental_memo_reuse () =
  (* Alternating between two demand phases: the memo must actually hit
     once both phases have been seen. *)
  let tree = small_tree (Rng.create 5) ~nodes:12 ~max_requests:3 in
  let other =
    Tree.with_clients tree (fun j ->
        match Tree.clients tree j with
        | c :: rest when j mod 2 = 0 -> (c + 1) :: rest
        | cs -> cs)
  in
  let demands =
    List.init 8 (fun i -> if i mod 2 = 0 then tree else other)
  in
  let cfg =
    Engine.config ~policy:Update_policy.Systematic ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.create cfg in
  let entries = List.map (Engine.step t) demands in
  check cb "memo holds tables" true (Engine.memo_tables t > 0);
  let hits =
    List.fold_left
      (fun acc (e : Timeline.entry) ->
        acc
        + (try List.assoc "dp_withpre.memo_hits" e.Timeline.counters
           with Not_found -> 0))
      0 entries
  in
  check cb "memo hits on warm epochs" true (hits > 0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_timeline_json_shape () =
  let tree = small_tree (Rng.create 9) ~nodes:6 ~max_requests:3 in
  let cfg =
    Engine.config ~w:10
      (Engine.Min_cost (Cost.basic ~create:0.5 ~delete:0.25 ()))
  in
  let t = Engine.run cfg [ tree; tree ] in
  let s = Timeline.to_json_string ~config:[ ("seed", Json.Int 9) ] t in
  List.iter
    (fun needle ->
      check cb (Printf.sprintf "json mentions %s" needle) true (contains s needle))
    [
      "\"schema_version\": 1";
      "\"bench\": \"engine_timeline\"";
      "\"seed\": 9";
      "\"summary\"";
      "\"epochs\"";
      "\"reconfigured\"";
    ]

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "cost mode: 110 trace runs" `Slow
            test_differential_cost;
          Alcotest.test_case "power mode: 20 trace runs" `Slow
            test_differential_power;
          prop_memo_churn_cost;
          prop_memo_churn_power;
          Alcotest.test_case "power-updates shape: 40 nudges, warm re-solves lean"
            `Quick test_power_updates_shape;
        ] );
      ( "engine",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "systematic policy" `Quick
            test_systematic_reconfigures_every_epoch;
          Alcotest.test_case "memo reuse" `Quick test_incremental_memo_reuse;
          Alcotest.test_case "timeline json" `Quick test_timeline_json_shape;
          Alcotest.test_case "memo tags: dp-withpre" `Quick test_memo_tags_cost;
          Alcotest.test_case "memo tags: dp-power" `Quick test_memo_tags_power;
        ] );
    ]
