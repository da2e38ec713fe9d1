(* The flat placement arena: as a catenable list it must keep element
   order through any association of appends and traverse deep spines
   without recursion; grafting and compaction must preserve every
   placement's content and the sharing between placements, the
   per-domain compactor must carry nothing stale over from one
   compaction to the next, deep spines must not overflow any stack, and
   a warm compaction must allocate O(1) words however many roots it
   copies. *)

open Helpers

let pairs = Alcotest.(list (pair int int))
let ints = Alcotest.(list int)

(* A placement of [l]'s elements (as nodes, flow 0), left to right. *)
let of_list a l = List.fold_left (fun acc node -> Arena.snoc a acc ~node ~flow:0) Arena.empty l

let test_empty () =
  let a = Arena.create () in
  check ci "count" 0 (Arena.count a Arena.empty);
  check ints "nodes" [] (Arena.nodes a Arena.empty)

let test_singleton () =
  let a = Arena.create () in
  let l = Arena.leaf a ~node:7 ~flow:3 in
  check ci "count" 1 (Arena.count a l);
  check pairs "to_list" [ (7, 3) ] (Arena.to_list a l)

let test_append_order () =
  let a = Arena.create () in
  let l = Arena.append a (of_list a [ 1; 2 ]) (of_list a [ 3; 4 ]) in
  check ints "left to right" [ 1; 2; 3; 4 ] (Arena.nodes a l);
  check ci "count" 4 (Arena.count a l)

let test_append_identity () =
  let a = Arena.create () in
  let l = of_list a [ 1; 2 ] in
  check ci "empty left" l (Arena.append a Arena.empty l);
  check ci "empty right" l (Arena.append a l Arena.empty)

let test_cons_snoc () =
  let a = Arena.create () in
  let l = of_list a [ 2; 3 ] in
  check ints "cons" [ 1; 2; 3 ]
    (Arena.nodes a (Arena.append a (Arena.leaf a ~node:1 ~flow:0) l));
  check ints "snoc" [ 2; 3; 4 ] (Arena.nodes a (Arena.snoc a l ~node:4 ~flow:0))

let test_roundtrip () =
  let a = Arena.create () in
  let l = List.init 100 Fun.id in
  check ints "nodes of snocs" l (Arena.nodes a (of_list a l))

let test_iter_count () =
  let a = Arena.create () in
  let l = of_list a [ 1; 2; 3; 4 ] in
  let sum = ref 0 in
  Arena.iter a (fun node _ -> sum := !sum + node) l;
  check ci "iter" 10 !sum;
  check ci "count" 4 (Arena.count a l)

let test_deep_spine () =
  (* One million snocs must not overflow the stack on traversal. *)
  let a = Arena.create () in
  let l = of_list a (List.init 1_000_000 Fun.id) in
  check ci "count" 1_000_000 (Arena.count a l);
  check ci "materializes" 1_000_000 (List.length (Arena.nodes a l))

let test_shape_independence () =
  (* Same contents through different association orders. *)
  let a = Arena.create () in
  let x = Arena.append a (of_list a [ 1 ]) (of_list a [ 2; 3 ]) in
  let y = Arena.append a (of_list a [ 1; 2 ]) (of_list a [ 3 ]) in
  check ints "same list" (Arena.nodes a x) (Arena.nodes a y)

(* A placement [l] and, independently, the list it must denote. *)
let rec build a ~depth ~next =
  if depth = 0 then begin
    let node = !next in
    incr next;
    (Arena.leaf a ~node ~flow:node, [ (node, node) ])
  end
  else
    let l, ll = build a ~depth:(depth - 1) ~next in
    let r, rl = build a ~depth:(depth - 1) ~next in
    (Arena.append a l r, ll @ rl)

(* Two roots sharing one sub-placement, with dead cells in between. *)
let shared_fixture () =
  let a = Arena.create ~capacity:4 () in
  let s = Arena.append a (Arena.leaf a ~node:1 ~flow:1) (Arena.leaf a ~node:2 ~flow:2) in
  ignore (Arena.snoc a (Arena.leaf a ~node:9 ~flow:9) ~node:9 ~flow:9);
  let r1 = Arena.snoc a s ~node:3 ~flow:3 in
  ignore (Arena.append a r1 r1);
  let r2 = Arena.snoc a s ~node:4 ~flow:4 in
  (a, r1, r2)

(* Cells reachable from r1 and r2 once each: leaves 1, 2, 3, 4, the
   shared cat, and the two root cats — plus the reserved empty cell. *)
let shared_cells = 8

let test_graft_preserves () =
  let src, r1, r2 = shared_fixture () in
  let l1 = Arena.to_list src r1 and l2 = Arena.to_list src r2 in
  let dst = Arena.create () in
  ignore (Arena.leaf dst ~node:7 ~flow:7);
  let g1 = Arena.graft ~src ~dst r1 in
  let g2 = Arena.graft ~src ~dst r2 in
  let g1' = Arena.graft ~src ~dst r1 in
  check pairs "r1 content" l1 (Arena.to_list dst g1);
  check pairs "r2 content" l2 (Arena.to_list dst g2);
  check ci "a moved root grafts to the same handle" g1 g1';
  check ci "shared cells moved once" (shared_cells + 1) (Arena.length dst);
  check ci "graft of empty" Arena.empty (Arena.graft ~src ~dst Arena.empty)

let test_compact_preserves () =
  let a, r1, r2 = shared_fixture () in
  let l1 = Arena.to_list a r1 and l2 = Arena.to_list a r2 in
  let c = Arena.compact_begin a in
  let r1' = Arena.compact_root a c r1 in
  let r2' = Arena.compact_root a c r2 in
  let e = Arena.compact_root a c Arena.empty in
  Arena.compact_commit a c;
  check ci "dead cells dropped, sharing kept" shared_cells (Arena.length a);
  check pairs "r1 content" l1 (Arena.to_list a r1');
  check pairs "r2 content" l2 (Arena.to_list a r2');
  check ci "empty stays empty" Arena.empty e;
  (* The compacted arena keeps working as an arena. *)
  let r3 = Arena.append a r1' r2' in
  check pairs "append after compaction" (l1 @ l2) (Arena.to_list a r3)

(* One compactor (the domain's) serves every compaction in turn: an
   arena that shrinks, a second arena, then the first grown past its
   old size. Cells left over in the reused target, or a forwarding
   record mistaken for a live cell, would show as a wrong placement or
   a wrong cell count. *)
let test_compactor_reuse () =
  let a = Arena.create () in
  let next = ref 0 in
  let compact arena roots =
    let c = Arena.compact_begin arena in
    let roots' = List.map (Arena.compact_root arena c) roots in
    Arena.compact_commit arena c;
    roots'
  in
  (* Placements never share here, so a compacted arena holds exactly
     one cell per element and per cat, plus the empty cell. *)
  let check_roots label arena roots expected =
    List.iteri
      (fun i (r, l) -> check pairs (Printf.sprintf "%s root %d" label i) l (Arena.to_list arena r))
      (List.combine roots expected);
    let cells = List.fold_left (fun n l -> n + (2 * List.length l) - 1) 1 expected in
    check ci (label ^ ": live cells only") cells (Arena.length arena)
  in
  (* Round 1: 8 large placements, two survive. *)
  let built = List.init 8 (fun _ -> build a ~depth:6 ~next) in
  let keep = [ List.nth built 1; List.nth built 6 ] in
  let roots = compact a (List.map fst keep) in
  check_roots "shrink" a roots (List.map snd keep);
  (* Round 2: a different, small arena through the same compactor. *)
  let b = Arena.create () in
  let small = List.init 3 (fun _ -> build b ~depth:2 ~next) in
  check_roots "other arena" b (compact b (List.map fst small)) (List.map snd small);
  (* Round 3: new cells land on indices round 1 mapped; grow past the
     first arena's original length so the map must grow too. *)
  let fresh = List.init 20 (fun _ -> build a ~depth:6 ~next) in
  let live = List.combine roots (List.map snd keep) @ fresh in
  let roots3 = compact a (List.map fst live) in
  check_roots "regrow" a roots3 (List.map snd live);
  (* Round 4: shrink again, to the last few placements in reverse, so
     every surviving cell moves. *)
  let from i l = List.rev (List.filteri (fun j _ -> j >= i) l) in
  check_roots "shrink again" a
    (compact a (from 15 roots3))
    (from 15 (List.map snd live))

let spine_len = 200_000

let test_deep_spines () =
  let a = Arena.create () in
  let left = ref Arena.empty and right = ref Arena.empty in
  for i = 1 to spine_len do
    left := Arena.snoc a !left ~node:i ~flow:0;
    right := Arena.append a (Arena.leaf a ~node:i ~flow:0) !right
  done;
  check ci "left spine count" spine_len (Arena.count a !left);
  check ci "right spine count" spine_len (Arena.count a !right);
  check ci "left spine order" 1 (List.hd (Arena.nodes a !left));
  check ci "right spine order" spine_len (List.hd (Arena.nodes a !right));
  let c = Arena.compact_begin a in
  let l' = Arena.compact_root a c !left in
  let r' = Arena.compact_root a c !right in
  Arena.compact_commit a c;
  check ci "compacted left spine" spine_len (Arena.count a l');
  check (Alcotest.list ci) "compacted right spine"
    (List.init spine_len (fun i -> spine_len - i))
    (Arena.nodes a r');
  let dst = Arena.create () in
  let g = Arena.graft ~src:a ~dst r' in
  check ci "grafted right spine" spine_len (Arena.count dst g)

(* K independent two-cell placements plus as much garbage, rebuilt
   identically each round. *)
let fill a k =
  Arena.clear a;
  Array.init k (fun i ->
      ignore (Arena.leaf a ~node:i ~flow:i);
      Arena.snoc a (Arena.leaf a ~node:i ~flow:0) ~node:i ~flow:1)

let compaction_words a roots =
  let before = Gc.minor_words () in
  let c = Arena.compact_begin a in
  for i = 0 to Array.length roots - 1 do
    roots.(i) <- Arena.compact_root a c roots.(i)
  done;
  Arena.compact_commit a c;
  Gc.minor_words () -. before

let test_compaction_alloc () =
  let words k =
    let a = Arena.create () in
    (* Warm round: grows the domain's compactor to this size. *)
    ignore (compaction_words a (fill a k));
    let roots = fill a k in
    let w = compaction_words a roots in
    check ci (Printf.sprintf "K=%d content kept" k) 2 (Arena.count a roots.(k - 1));
    w
  in
  let small = words 100 and large = words 20_000 in
  (* A stack and closure per root would cost >= 65 words per root. *)
  check cb
    (Printf.sprintf "O(1) words: %.0f at K=100, %.0f at K=20000" small large)
    true
    (large <= 64. && small <= 64.)

let () =
  Alcotest.run "arena"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "append order" `Quick test_append_order;
          Alcotest.test_case "append identity" `Quick test_append_identity;
          Alcotest.test_case "cons/snoc" `Quick test_cons_snoc;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "iter/count" `Quick test_iter_count;
          Alcotest.test_case "deep spine" `Slow test_deep_spine;
          Alcotest.test_case "shape independence" `Quick test_shape_independence;
        ] );
      ( "graft",
        [
          Alcotest.test_case "content and sharing" `Quick test_graft_preserves;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "content and sharing" `Quick test_compact_preserves;
          Alcotest.test_case "compactor reuse" `Quick test_compactor_reuse;
          Alcotest.test_case "deep spines" `Quick test_deep_spines;
          Alcotest.test_case "O(1) allocation" `Quick test_compaction_alloc;
        ] );
    ]
