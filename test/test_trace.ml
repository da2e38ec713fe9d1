open Replica_tree
open Replica_trace
open Helpers

let ev time node client = { Trace.time; node; client }

(* Fixture: root with clients [2], child with clients [3; 1]. *)
let sample_tree () =
  Tree.build (Tree.node ~clients:[ 2 ] [ Tree.node ~clients:[ 3; 1 ] [] ])

(* --- Trace --- *)

let test_of_events_sorts () =
  let t = Trace.of_events [ ev 3. 0 0; ev 1. 1 0; ev 2. 1 1 ] in
  check ci "length" 3 (Trace.length t);
  let times = List.map (fun e -> e.Trace.time) (Trace.events t) in
  check (Alcotest.list cf) "sorted" [ 1.; 2.; 3. ] times;
  check cf "duration" 3. (Trace.duration t)

let test_of_events_rejects_negative () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Trace.of_events: negative timestamp") (fun () ->
      ignore (Trace.of_events [ ev (-1.) 0 0 ]))

let test_empty () =
  let t = Trace.of_events [] in
  check ci "empty" 0 (Trace.length t);
  check cf "zero duration" 0. (Trace.duration t);
  check (Alcotest.list (Alcotest.pair (Alcotest.pair ci ci) ci)) "no counts" []
    (Trace.count_by_client t)

let test_merge_and_filter () =
  let a = Trace.of_events [ ev 1. 0 0; ev 3. 0 0 ] in
  let b = Trace.of_events [ ev 2. 1 0 ] in
  let m = Trace.merge a b in
  check ci "merged" 3 (Trace.length m);
  let times = List.map (fun e -> e.Trace.time) (Trace.events m) in
  check (Alcotest.list cf) "interleaved" [ 1.; 2.; 3. ] times;
  let only_node0 = Trace.filter (fun e -> e.Trace.node = 0) m in
  check ci "filtered" 2 (Trace.length only_node0)

let test_count_by_client () =
  let t = Trace.of_events [ ev 1. 0 0; ev 2. 1 0; ev 3. 0 0; ev 4. 1 1 ] in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair ci ci) ci))
    "counts"
    [ ((0, 0), 2); ((1, 0), 1); ((1, 1), 1) ]
    (Trace.count_by_client t)

(* --- Arrivals --- *)

let test_poisson_rate_convergence () =
  (* Over a long horizon, per-client event counts approach rate·horizon. *)
  let tree = sample_tree () in
  let rng = Rng.create 21 in
  let horizon = 500. in
  let trace = Arrivals.poisson rng tree ~horizon in
  List.iter
    (fun ((node, client), count) ->
      let rate = float_of_int (List.nth (Tree.clients tree node) client) in
      let expected = rate *. horizon in
      let observed = float_of_int count in
      check cb
        (Printf.sprintf "node %d client %d within 15%%" node client)
        true
        (abs_float (observed -. expected) < 0.15 *. expected))
    (Trace.count_by_client trace);
  check ci "all clients emitted" 3 (List.length (Trace.count_by_client trace))

let test_poisson_determinism () =
  let tree = sample_tree () in
  let a = Arrivals.poisson (Rng.create 5) tree ~horizon:50. in
  let b = Arrivals.poisson (Rng.create 5) tree ~horizon:50. in
  check ci "same length" (Trace.length a) (Trace.length b)

let test_poisson_validation () =
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Arrivals.poisson: horizon must be positive") (fun () ->
      ignore (Arrivals.poisson (Rng.create 1) (sample_tree ()) ~horizon:0.))

let test_diurnal_thins () =
  (* The diurnal trace is a thinning of the max-rate process: strictly
     fewer events than plain Poisson in expectation when floor < 1. *)
  let tree = sample_tree () in
  let horizon = 400. in
  let plain = Arrivals.poisson (Rng.create 9) tree ~horizon in
  let cycled =
    Arrivals.diurnal (Rng.create 9) tree ~horizon ~period:100. ~floor:0.2
  in
  check cb "fewer events" true (Trace.length cycled < Trace.length plain);
  (* The average modulation is (1 + floor)/2 = 0.6: expect roughly that
     fraction. *)
  let ratio = float_of_int (Trace.length cycled) /. float_of_int (Trace.length plain) in
  check cb "ratio near 0.6" true (ratio > 0.45 && ratio < 0.75)

let test_diurnal_validation () =
  let t = sample_tree () in
  Alcotest.check_raises "bad floor"
    (Invalid_argument "Arrivals.diurnal: floor must be within [0, 1]")
    (fun () ->
      ignore (Arrivals.diurnal (Rng.create 1) t ~horizon:10. ~period:5. ~floor:2.))

let test_flash_crowd_localized () =
  let tree = sample_tree () in
  let rng = Rng.create 31 in
  let base = Arrivals.poisson rng tree ~horizon:100. in
  let spiked =
    Arrivals.flash_crowd rng tree ~base ~at:40. ~duration:20. ~node:1
      ~multiplier:4.
  in
  check cb "more events" true (Trace.length spiked > Trace.length base);
  (* Every extra event is in node 1's subtree and within the window. *)
  let extra = Trace.length spiked - Trace.length base in
  let in_window =
    Trace.filter
      (fun e -> e.Trace.node = 1 && e.Trace.time >= 40. && e.Trace.time < 60.)
      spiked
  in
  let base_in_window =
    Trace.filter
      (fun e -> e.Trace.node = 1 && e.Trace.time >= 40. && e.Trace.time < 60.)
      base
  in
  check ci "extras localized" extra
    (Trace.length in_window - Trace.length base_in_window)

(* --- Epochs --- *)

let test_rates_rounding () =
  let tree = sample_tree () in
  (* 6 events for (1,0) in window [0,2): rate 3; 1 event for (0,0): 0.5
     rounds to 1... Float.round 0.5 = 1. *)
  let trace =
    Trace.of_events
      (List.init 6 (fun i -> ev (0.3 *. float_of_int i) 1 0) @ [ ev 1.5 0 0 ])
  in
  let epoch = Epochs.rates trace tree ~window:2. ~index:0 in
  check ci "node 1 rate" 3 (Tree.client_load epoch 1);
  check ci "node 0 rate" 1 (Tree.client_load epoch 0)

let test_idle_clients_dropped () =
  let tree = sample_tree () in
  let trace = Trace.of_events [ ev 0.5 1 0 ] in
  let epoch = Epochs.rates trace tree ~window:1. ~index:0 in
  check ci "only one client left" 1 (Tree.num_clients epoch);
  (* Structure preserved. *)
  check ci "same size" (Tree.size tree) (Tree.size epoch)

let test_epoch_partition () =
  let tree = sample_tree () in
  let trace = Trace.of_events [ ev 0.5 0 0; ev 4.5 1 0; ev 9.9 1 1 ] in
  check ci "epoch count" 2 (Epochs.epoch_count trace ~window:5.);
  let epochs = Epochs.epochs trace tree ~window:5. in
  check ci "two epochs" 2 (List.length epochs);
  check cb "conservation" true (Epochs.conservation_check trace tree ~window:5.)

let test_empty_trace_epochs () =
  let tree = sample_tree () in
  let trace = Trace.of_events [] in
  let epochs = Epochs.epochs trace tree ~window:3. in
  check ci "one idle epoch" 1 (List.length epochs);
  check ci "no demand" 0 (Tree.total_requests (List.hd epochs))

let test_epochs_validation () =
  let trace = Trace.of_events [] in
  Alcotest.check_raises "bad window"
    (Invalid_argument "Epochs: window must be positive") (fun () ->
      ignore (Epochs.epoch_count trace ~window:0.));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Epochs: negative index") (fun () ->
      ignore (Epochs.rates trace (sample_tree ()) ~window:1. ~index:(-1)))

(* Windowed aggregation conserves every event, whatever the arrival
   process (the flash-crowd generator included — previously untested). *)
let trace_case_gen =
  QCheck2.Gen.map
    (fun (seed, nodes, knobs) ->
      let rng = Rng.create (1 + seed) in
      let nodes = 1 + (nodes mod 10) in
      let tree = small_tree rng ~nodes ~max_requests:4 in
      let kind = knobs mod 3 in
      let horizon = 6. +. float_of_int (knobs mod 4) in
      let trace =
        match kind with
        | 0 -> Arrivals.poisson rng tree ~horizon
        | 1 ->
            Arrivals.diurnal rng tree ~horizon ~period:(horizon /. 2.)
              ~floor:0.25
        | _ ->
            let base = Arrivals.poisson rng tree ~horizon in
            let node = Rng.int rng (Tree.size tree) in
            Arrivals.flash_crowd rng tree ~base ~at:(horizon /. 4.)
              ~duration:(horizon /. 3.) ~node ~multiplier:3.
      in
      let window = 0.5 +. (0.5 *. float_of_int (knobs mod 5)) in
      (tree, trace, window))
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 1_000) (int_bound 1_000))

let prop_aggregation_conserves_requests =
  qcheck_case "epochs conserve events on poisson/diurnal/flash traces"
    trace_case_gen
    (fun (tree, trace, window) ->
      Epochs.conservation_check trace tree ~window)

let prop_epochs_cover_trace =
  qcheck_case "every event lands in exactly one epoch window" trace_case_gen
    (fun (_, trace, window) ->
      let epochs = Epochs.epoch_count trace ~window in
      epochs >= 1
      && Trace.duration trace <= (float_of_int epochs *. window) +. 1e-9)

(* --- Boundary regressions: an event at exactly k · window --- *)

(* A final event at exactly k · window opens window k, at every
   duration: a count of [ceil ((d + epsilon) / window)] would leave it
   outside every window once d >= 2. *)
let test_boundary_final_event () =
  let tree = sample_tree () in
  List.iter
    (fun (d, window, count) ->
      (* [window] events at [d], so the last window's rate is 1. *)
      let final = List.init (int_of_float window) (fun _ -> ev d 1 0) in
      let trace = Trace.of_events (ev 0.5 0 0 :: final) in
      let label = Printf.sprintf "d=%g window=%g" d window in
      check ci (label ^ ": count") count (Epochs.epoch_count trace ~window);
      check cb (label ^ ": conserved") true
        (Epochs.conservation_check trace tree ~window);
      let last = List.nth (Epochs.epochs trace tree ~window) (count - 1) in
      check ci (label ^ ": last window holds it") 1 (Tree.total_requests last))
    [ (1., 1., 2); (2., 1., 3); (60., 1., 61); (10., 5., 3); (5., 5., 2) ]

(* --- The per-window scan: differential oracle for the bucketing kernel.
   Every window rescans the whole event list into a tuple-keyed table,
   O(E × windows); the window count is the library's [epoch_count]. --- *)

module Oracle = struct
  let window_counts trace ~window ~index =
    if window <= 0. then invalid_arg "Epochs: window must be positive";
    if index < 0 then invalid_arg "Epochs: negative index";
    let start = float_of_int index *. window in
    let stop = start +. window in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if e.Trace.time >= start && e.Trace.time < stop then begin
          let key = (e.Trace.node, e.Trace.client) in
          Hashtbl.replace tbl key
            ((try Hashtbl.find tbl key with Not_found -> 0) + 1)
        end)
      (Trace.events trace);
    tbl

  let rates trace tree ~window ~index =
    let counts = window_counts trace ~window ~index in
    Tree.with_clients tree (fun j ->
        List.filteri
          (fun _ r -> r > 0)
          (List.mapi
             (fun i _ ->
               let events =
                 try Hashtbl.find counts (j, i) with Not_found -> 0
               in
               int_of_float (Float.round (float_of_int events /. window)))
             (Tree.clients tree j)))

  let epochs trace tree ~window =
    List.init (Epochs.epoch_count trace ~window) (fun index ->
        rates trace tree ~window ~index)

  let epochs_multi streams ~window =
    let count =
      List.fold_left
        (fun acc (trace, _) -> max acc (Epochs.epoch_count trace ~window))
        1 streams
    in
    List.init count (fun index ->
        List.map (fun (trace, tree) -> rates trace tree ~window ~index) streams)

  let conservation_check trace ~window =
    let summed = ref 0 in
    for index = 0 to Epochs.epoch_count trace ~window - 1 do
      Hashtbl.iter
        (fun _ c -> summed := !summed + c)
        (window_counts trace ~window ~index)
    done;
    !summed = Trace.length trace

  (* Concatenate, then sort with polymorphic compare on tuples. *)
  let sort events =
    List.sort
      (fun a b ->
        compare
          (a.Trace.time, a.Trace.node, a.Trace.client)
          (b.Trace.time, b.Trace.node, b.Trace.client))
      events

  let merge_all ts = sort (List.concat_map Trace.events ts)
end

let test_boundary_windows () =
  (* Events on and one ulp below every grid point land where the window
     predicate puts them. At 0.1, [float k *. 0.1] and
     [float (k - 1) *. 0.1 +. 0.1] differ in the last bit for some k, so
     neighbouring windows overlap or leave a gap and the conservation
     check fails exactly where the per-window scan's does. At the dyadic
     width 0.25 windows tile exactly and every event is conserved. *)
  let tree = sample_tree () in
  List.iter
    (fun (window, conserved) ->
      let trace =
        Trace.of_events
          (List.concat
             (List.init 61 (fun k ->
                  let t = float_of_int k *. window in
                  [ ev t 0 0; ev (Float.max 0. (Float.pred t)) 1 1 ])))
      in
      let label = Printf.sprintf "window=%g" window in
      check ci (label ^ ": count") 61 (Epochs.epoch_count trace ~window);
      check cb (label ^ ": epochs = oracle") true
        (List.equal Tree.equal
           (Epochs.epochs trace tree ~window)
           (Oracle.epochs trace tree ~window));
      check cb (label ^ ": conservation") conserved
        (Epochs.conservation_check trace tree ~window);
      check cb (label ^ ": conservation = oracle")
        (Oracle.conservation_check trace ~window)
        (Epochs.conservation_check trace tree ~window))
    [ (0.1, false); (0.25, true) ]

let oracle_windows = [| 0.1; 0.25; 0.3; 0.7; 1.; 2.5 |]

(* Random events over [0, points · window], most forced onto a grid
   point k · window: exactly [float k *. window], one ulp either side,
   or k · window reached by repeated addition. Nodes and client indices
   run one past the tree's, so events naming no client occur too. *)
let random_events rng tree ~window ~points =
  let on_grid k = float_of_int k *. window in
  let rec added acc k = if k = 0 then acc else added (acc +. window) (k - 1) in
  List.init (Rng.int rng 40) (fun _ ->
      let k = Rng.int rng (points + 1) in
      let time =
        match Rng.int rng 6 with
        | 0 | 1 -> on_grid k
        | 2 -> Float.succ (on_grid k)
        | 3 -> Float.max 0. (Float.pred (on_grid k))
        | 4 -> added 0. k
        | _ -> Rng.float rng (on_grid points)
      in
      let node = Rng.int rng (Tree.size tree + 1) in
      let clients =
        if node < Tree.size tree then List.length (Tree.clients tree node)
        else 1
      in
      ev time node (Rng.int rng (clients + 1)))

(* One window from the list, and 1-3 streams over their own trees. The
   run's seed is printed first ("qcheck random seed: N");
   QCHECK_SEED=N replays it. *)
let boundary_case_gen =
  QCheck2.Gen.map
    (fun (seed, w) ->
      let rng = Rng.create (1 + seed) in
      let window = oracle_windows.(w) in
      let streams =
        List.init (1 + Rng.int rng 3) (fun _ ->
            let tree =
              small_tree rng ~nodes:(1 + Rng.int rng 8) ~max_requests:4
            in
            let points = 1 + Rng.int rng 12 in
            (Trace.of_events (random_events rng tree ~window ~points), tree))
      in
      (window, streams))
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 5))

let prop_kernel_matches_oracle =
  qcheck_case ~count:300
    "bucketing kernel = per-window scan (epochs, rates, conservation)"
    boundary_case_gen (fun (window, streams) ->
      List.for_all
        (fun (trace, tree) ->
          let count = Epochs.epoch_count trace ~window in
          List.equal Tree.equal
            (Epochs.epochs trace tree ~window)
            (Oracle.epochs trace tree ~window)
          && List.for_all
               (fun index ->
                 Tree.equal
                   (Epochs.rates trace tree ~window ~index)
                   (Oracle.rates trace tree ~window ~index))
               [ 0; count - 1; count; count + 2 ]
          && Epochs.conservation_check trace tree ~window
             = Oracle.conservation_check trace ~window)
        streams)

let prop_multi_matches_oracle =
  qcheck_case ~count:200 "bucketing kernel = per-window scan (epochs_multi)"
    boundary_case_gen (fun (window, streams) ->
      List.equal (List.equal Tree.equal)
        (Epochs.epochs_multi streams ~window)
        (Oracle.epochs_multi streams ~window))

(* Traces with heavy ties: few distinct times, nodes and clients, and
   some streams sharing events outright. *)
let merge_case_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create (1 + seed) in
      let events () =
        List.init (Rng.int rng 30) (fun _ ->
            ev (float_of_int (Rng.int rng 6) /. 4.) (Rng.int rng 3)
              (Rng.int rng 2))
      in
      let shared = events () in
      List.init (Rng.int rng 5) (fun _ ->
          Trace.of_events
            (if Rng.int rng 3 = 0 then shared @ events () else events ())))
    (QCheck2.Gen.int_bound 1_000_000)

let prop_merge_matches_oracle =
  qcheck_case ~count:300 "k-way merge = concat and polymorphic sort"
    merge_case_gen (fun ts ->
      Trace.events (Trace.merge_all ts) = Oracle.merge_all ts
      && List.for_all
           (fun t -> Trace.events t = Oracle.sort (Trace.events t))
           ts
      &&
      match ts with
      | a :: b :: _ ->
          Trace.events (Trace.merge a b) = Oracle.merge_all [ a; b ]
      | _ -> true)

let prop_filter_matches_list =
  qcheck_case "filter = List.filter on the events" merge_case_gen (fun ts ->
      let t = Trace.merge_all ts in
      let p e = e.Trace.node <> 1 in
      Trace.events (Trace.filter p t) = List.filter p (Trace.events t))

(* --- changed_nodes (epoch diffing for the incremental engine) --- *)

let test_changed_nodes_identity () =
  let tree = sample_tree () in
  check (Alcotest.list ci) "no change" [] (Epochs.changed_nodes tree tree)

let test_changed_nodes_exact () =
  let tree = sample_tree () in
  let next =
    Tree.with_clients tree (fun j ->
        if j = 1 then [ 4; 1 ] else Tree.clients tree j)
  in
  check (Alcotest.list ci) "only node 1" [ 1 ] (Epochs.changed_nodes tree next);
  check (Alcotest.list ci) "symmetric" [ 1 ] (Epochs.changed_nodes next tree)

let test_changed_nodes_size_mismatch () =
  let small = sample_tree () in
  let big = Tree.build (Tree.node ~clients:[ 1 ] [ Tree.node []; Tree.node [] ]) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Epochs: changed_nodes expects views of one network")
    (fun () -> ignore (Epochs.changed_nodes small big))

let prop_changed_nodes_match_direct_diff =
  qcheck_case "changed_nodes = the nodes whose multisets differ"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000))
    (fun (seed, mask) ->
      let rng = Rng.create (1 + seed) in
      let tree = small_tree rng ~nodes:(1 + (mask mod 9)) ~max_requests:4 in
      let next =
        Tree.with_clients tree (fun j ->
            let cs = Tree.clients tree j in
            if (mask lsr (j mod 10)) land 1 = 1 then
              match cs with c :: rest -> (c + 1) :: rest | [] -> [ 1 ]
            else cs)
      in
      let expected =
        List.filter
          (fun j -> Tree.clients tree j <> Tree.clients next j)
          (List.init (Tree.size tree) Fun.id)
      in
      Epochs.changed_nodes tree next = expected)

let test_end_to_end_rates () =
  (* Poisson trace aggregated over whole-trace windows recovers the
     original request counts approximately. *)
  let tree = sample_tree () in
  let rng = Rng.create 77 in
  let trace = Arrivals.poisson rng tree ~horizon:300. in
  let epochs = Epochs.epochs trace tree ~window:100. in
  List.iter
    (fun epoch ->
      check cb "total demand near original" true
        (abs (Tree.total_requests epoch - Tree.total_requests tree) <= 2))
    epochs

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "sorting" `Quick test_of_events_sorts;
          Alcotest.test_case "negative time" `Quick test_of_events_rejects_negative;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "merge/filter" `Quick test_merge_and_filter;
          Alcotest.test_case "count by client" `Quick test_count_by_client;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson rates" `Slow test_poisson_rate_convergence;
          Alcotest.test_case "determinism" `Quick test_poisson_determinism;
          Alcotest.test_case "validation" `Quick test_poisson_validation;
          Alcotest.test_case "diurnal thinning" `Slow test_diurnal_thins;
          Alcotest.test_case "diurnal validation" `Quick test_diurnal_validation;
          Alcotest.test_case "flash crowd" `Quick test_flash_crowd_localized;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "rounding" `Quick test_rates_rounding;
          Alcotest.test_case "idle clients" `Quick test_idle_clients_dropped;
          Alcotest.test_case "partition" `Quick test_epoch_partition;
          Alcotest.test_case "empty trace" `Quick test_empty_trace_epochs;
          Alcotest.test_case "validation" `Quick test_epochs_validation;
          Alcotest.test_case "end to end" `Slow test_end_to_end_rates;
          prop_aggregation_conserves_requests;
          prop_epochs_cover_trace;
          Alcotest.test_case "boundary final event" `Quick
            test_boundary_final_event;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "boundary windows" `Quick test_boundary_windows;
          prop_kernel_matches_oracle;
          prop_multi_matches_oracle;
          prop_merge_matches_oracle;
          prop_filter_matches_list;
        ] );
      ( "changed nodes",
        [
          Alcotest.test_case "identity" `Quick test_changed_nodes_identity;
          Alcotest.test_case "exact" `Quick test_changed_nodes_exact;
          Alcotest.test_case "size mismatch" `Quick
            test_changed_nodes_size_mismatch;
          prop_changed_nodes_match_direct_diff;
        ] );
    ]
