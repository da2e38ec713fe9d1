(* Property tests for the packed DP state keys ({!Packed_key}) and the
   packed/wide agreement of {!Dp_power}. *)

open Replica_tree
open Replica_core
open Helpers

(* Random layout plus vectors drawn within its field maxima, all
   derived from one qcheck seed so shrinking reproduces instances. *)
type instance = {
  m : int;
  count_max : int array;
  flow_max : int;
  layout : Packed_key.layout option;
  va : int array;  (* m + m*m + 1 entries, within maxima *)
  vb : int array;
}

let vector_within rng count_max flow_max =
  let nf = Array.length count_max in
  Array.init (nf + 1) (fun i ->
      if i < nf then Rng.int rng (count_max.(i) + 1)
      else Rng.int rng (flow_max + 1))

let instance_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let m = 1 + Rng.int rng 3 in
      let nf = m + (m * m) in
      let count_max = Array.init nf (fun _ -> Rng.int rng 7) in
      let flow_max = Rng.int rng 31 in
      let layout = Packed_key.make ~m ~count_max ~flow_max in
      let va = vector_within rng count_max flow_max in
      let vb = vector_within rng count_max flow_max in
      { m; count_max; flow_max; layout; va; vb })
    QCheck2.Gen.(int_bound 1_000_000)

let prop_roundtrip =
  qcheck_case "packed key: encode/decode roundtrip" instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l -> Packed_key.decode l (Packed_key.encode l i.va) = i.va)

let prop_order =
  (* Integer comparison of packed keys is exactly lexicographic
     comparison of the wide vectors — the property the flow-dominance
     prune's minimal-key winner relies on. *)
  qcheck_case "packed key: int order = lexicographic vector order"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          compare (Packed_key.encode l i.va) (Packed_key.encode l i.vb)
          = compare i.va i.vb)

let prop_counts_group =
  (* [counts] (= key lsr flow_bits) agrees iff the vectors agree on
     every field but the flow — the prune's grouping criterion. *)
  qcheck_case "packed key: counts prefix groups like the wide prefix"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let ka = Packed_key.encode l i.va
          and kb = Packed_key.encode l i.vb in
          Packed_key.counts l ka = Packed_key.counts l kb
          = (Array.sub i.va 0 nf = Array.sub i.vb 0 nf))

let prop_carry_free_add =
  (* Keys of disjoint subtrees add field-wise without carries as long
     as every field sum stays within the sized maxima. *)
  qcheck_case "packed key: field-wise add is carry-free" instance_gen
    (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let half = Array.map (fun v -> v / 2) i.va in
          let rest = Array.mapi (fun j v -> v - half.(j)) i.va in
          let sum = Packed_key.encode l half + Packed_key.encode l rest in
          ignore nf;
          sum = Packed_key.encode l i.va)

let prop_bump_flow_fields =
  qcheck_case "packed key: get/bump/zero_flow/flow agree with the vector"
    instance_gen (fun i ->
      match i.layout with
      | None -> true
      | Some l ->
          let nf = Array.length i.count_max in
          let k = Packed_key.encode l i.va in
          Packed_key.flow l k = i.va.(nf)
          && Array.for_all Fun.id
               (Array.init nf (fun f -> Packed_key.get l k f = i.va.(f)))
          &&
          let zeroed = Array.copy i.va in
          zeroed.(nf) <- 0;
          Packed_key.zero_flow l k = Packed_key.encode l zeroed
          &&
          (* bump the first field that has headroom, if any *)
          let f = ref (-1) in
          Array.iteri
            (fun j maxv -> if !f < 0 && i.va.(j) < maxv then f := j)
            i.count_max;
          !f < 0
          ||
          let bumped = Array.copy i.va in
          bumped.(!f) <- bumped.(!f) + 1;
          Packed_key.bump l k !f = Packed_key.encode l bumped)

(* The 62-bit budget is exact: a layout of total width 62 packs, one
   more bit does not. Widths: a field with maximum (1 lsl b) - 1 is b
   bits wide. With m = 1 there are two count fields plus the flow. *)
let test_budget_boundary () =
  let mk c0 c1 fl =
    Packed_key.make ~m:1 ~count_max:[| c0; c1 |] ~flow_max:fl
  in
  let wide b = (1 lsl b) - 1 in
  Alcotest.(check bool)
    "62 bits fits" true
    (mk (wide 31) (wide 15) (wide 16) <> None);
  Alcotest.(check bool)
    "63 bits overflows" true
    (mk (wide 31) (wide 16) (wide 16) = None);
  Alcotest.(check bool)
    "zero-width fields are free" true
    (mk (wide 62) 0 0 <> None);
  (match mk (wide 31) (wide 15) (wide 16) with
  | Some l -> Alcotest.(check int) "total_bits" 62 (Packed_key.total_bits l)
  | None -> Alcotest.fail "62-bit layout must pack");
  Alcotest.check_raises "negative maxima rejected"
    (Invalid_argument "Packed_key.make: negative count_max") (fun () ->
      ignore (Packed_key.make ~m:1 ~count_max:[| -1; 0 |] ~flow_max:0))

(* Packed and wide solves agree on the optimum (power, cost) and both
   return valid placements achieving them; the frontier agrees as a
   (cost, power) point set. *)
let qos_free_tree_gen =
  QCheck2.Gen.map
    (fun (seed, nodes, pre) ->
      let rng = Rng.create seed in
      let nodes = 1 + (nodes mod 9) in
      let t = small_tree rng ~nodes ~max_requests:5 in
      Generator.add_pre_existing rng t (pre mod (nodes + 1)))
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 1_000) (int_bound 1_000))

let prop_packed_vs_wide_solve =
  qcheck_case ~count:60 "dp_power: packed and wide solves agree"
    qos_free_tree_gen (fun t ->
      List.for_all
        (fun bound ->
          let solve packed =
            Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
              ~bound ~packed ()
          in
          match (solve true, solve false) with
          | None, None -> true
          | Some p, Some w ->
              abs_float (p.Dp_power.power -. w.Dp_power.power) < 1e-9
              && abs_float (p.Dp_power.cost -. w.Dp_power.cost) < 1e-9
              && Solution.is_valid t
                   ~w:(Modes.max_capacity modes_2)
                   p.Dp_power.solution
          | Some _, None | None, Some _ -> false)
        [ 2.; 5.; infinity ])

let prop_packed_vs_wide_frontier =
  qcheck_case ~count:40 "dp_power: packed and wide frontiers agree"
    qos_free_tree_gen (fun t ->
      let points l =
        List.map (fun r -> (r.Dp_power.cost, r.Dp_power.power)) l
      in
      (* [frontier] has no ?packed switch; pit the automatic (packed)
         path against the wide candidates by comparing against bounded
         wide solves at every frontier cost. *)
      let fr =
        Dp_power.frontier t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
      in
      List.for_all
        (fun (c, p) ->
          match
            Dp_power.solve t ~modes:modes_2 ~power:power_exp3 ~cost:cost_cheap
              ~bound:c ~packed:false ()
          with
          | Some w -> abs_float (w.Dp_power.power -. p) < 1e-9
          | None -> false)
        (points fr))

(* A memo passed with an instance beyond the packed budget is ignored:
   the wide solve runs memo-less, with the memo-less answer, and the
   memo caches nothing. Twenty modes on eight nodes need 4 bits per
   count field, far past 62 bits in either layout. *)
let test_wide_ignores_memo () =
  let modes = Modes.make (List.init 20 (fun i -> i + 1)) in
  let power = Power.paper_exp3 ~modes and cost = Cost.paper_cheap ~modes:20 in
  let memo = Dp_power.memo () in
  for seed = 1 to 4 do
    let t = small_tree_with_pre (Rng.create seed) ~nodes:8 ~max_requests:5 ~pre:2 in
    Alcotest.(check bool) "wide instance" true (Dp_power.packed_bits t ~modes = None);
    let answer r =
      Option.map
        (fun r ->
          (r.Dp_power.power, r.Dp_power.cost, Solution.nodes r.Dp_power.solution))
        r
    in
    let plain = answer (Dp_power.solve t ~modes ~power ~cost ()) in
    let memoed = answer (Dp_power.solve t ~modes ~power ~cost ~memo ()) in
    Alcotest.(check bool) "memo-less answer" true (plain = memoed);
    Alcotest.(check int) "nothing cached" 0 (Dp_power.memo_size memo)
  done

let () =
  Alcotest.run "packed_key"
    [
      ( "packed key",
        [
          prop_roundtrip;
          prop_order;
          prop_counts_group;
          prop_carry_free_add;
          prop_bump_flow_fields;
          Alcotest.test_case "62-bit budget boundary" `Quick
            test_budget_boundary;
        ] );
      ( "packed vs wide",
        [
          prop_packed_vs_wide_solve;
          prop_packed_vs_wide_frontier;
          Alcotest.test_case "wide instance ignores the memo" `Quick
            test_wide_ignores_memo;
        ] );
    ]
