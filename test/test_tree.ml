open Replica_tree
open Helpers

let sample () =
  (* Preorder ids:
     0
     ├── 1 (pre@1, clients 2 3)
     │    ├── 2 (clients 1)
     │    └── 3
     └── 4 (clients 5) *)
  Tree.build
    (Tree.node
       [
         Tree.node ~clients:[ 2; 3 ] ~pre:1
           [ Tree.node ~clients:[ 1 ] []; Tree.node [] ];
         Tree.node ~clients:[ 5 ] [];
       ])

let test_build_shape () =
  let t = sample () in
  check ci "size" 5 (Tree.size t);
  check ci "root" 0 (Tree.root t);
  check (Alcotest.option ci) "parent of root" None (Tree.parent t 0);
  check (Alcotest.option ci) "parent of 3" (Some 1) (Tree.parent t 3);
  check (Alcotest.list ci) "children of 0" [ 1; 4 ] (Tree.children t 0);
  check (Alcotest.list ci) "children of 1" [ 2; 3 ] (Tree.children t 1);
  check (Alcotest.list ci) "children of 4 empty" [] (Tree.children t 4)

let test_clients () =
  let t = sample () in
  check (Alcotest.list ci) "clients of 1" [ 2; 3 ] (Tree.clients t 1);
  check ci "client load of 1" 5 (Tree.client_load t 1);
  check ci "client load of 0" 0 (Tree.client_load t 0);
  check ci "num clients" 4 (Tree.num_clients t);
  check ci "total requests" 11 (Tree.total_requests t)

let test_pre_existing () =
  let t = sample () in
  check cb "1 is pre" true (Tree.is_pre_existing t 1);
  check cb "0 not pre" false (Tree.is_pre_existing t 0);
  check (Alcotest.option ci) "initial mode" (Some 1) (Tree.initial_mode t 1);
  check (Alcotest.list ci) "pre set" [ 1 ] (Tree.pre_existing t);
  check ci "pre count" 1 (Tree.num_pre_existing t)

let test_traversal () =
  let t = sample () in
  let post = Array.to_list (Tree.postorder t) in
  check (Alcotest.list ci) "postorder" [ 2; 3; 1; 4; 0 ] post;
  let pre = Array.to_list (Tree.preorder t) in
  check (Alcotest.list ci) "preorder" [ 0; 1; 2; 3; 4 ] pre;
  (* children before parents, structurally *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun j ->
      List.iter
        (fun c -> check cb "child visited first" true (Hashtbl.mem seen c))
        (Tree.children t j);
      Hashtbl.replace seen j ())
    post

let test_subtree_metrics () =
  let t = sample () in
  check ci "subtree size of 0" 4 (Tree.subtree_size t 0);
  check ci "subtree size of 1" 2 (Tree.subtree_size t 1);
  check ci "subtree size of leaf" 0 (Tree.subtree_size t 2);
  check ci "subtree pre of 0" 1 (Tree.subtree_pre_count t 0);
  check ci "subtree pre of 1" 0 (Tree.subtree_pre_count t 1);
  check ci "depth root" 0 (Tree.depth t 0);
  check ci "depth of 3" 2 (Tree.depth t 3);
  check ci "height" 2 (Tree.height t)

let test_ancestors () =
  let t = sample () in
  check (Alcotest.list ci) "ancestors of 3" [ 1; 0 ] (Tree.ancestors t 3);
  check (Alcotest.list ci) "ancestors of root" [] (Tree.ancestors t 0);
  check cb "0 anc of 3" true (Tree.is_ancestor t ~anc:0 ~desc:3);
  check cb "1 anc of 3" true (Tree.is_ancestor t ~anc:1 ~desc:3);
  check cb "4 not anc of 3" false (Tree.is_ancestor t ~anc:4 ~desc:3);
  check cb "3 not anc of 3" false (Tree.is_ancestor t ~anc:3 ~desc:3);
  check cb "3 not anc of 1" false (Tree.is_ancestor t ~anc:3 ~desc:1)

let test_mark_ancestors () =
  let t = sample () in
  let n = Tree.size t in
  (* Every subset of nodes: the sweep's closure equals the union of
     each marked node with its ancestor list. *)
  for mask = 0 to (1 lsl n) - 1 do
    let marks = Array.init n (fun j -> (mask lsr j) land 1 = 1) in
    let expected = Array.copy marks in
    Array.iteri
      (fun j m ->
        if m then List.iter (fun a -> expected.(a) <- true) (Tree.ancestors t j))
      marks;
    Tree.mark_ancestors t marks;
    check (Alcotest.array cb) (Printf.sprintf "mask %d" mask) expected marks
  done;
  Alcotest.check_raises "length"
    (Invalid_argument "Tree.mark_ancestors: marks length differs from tree size")
    (fun () -> Tree.mark_ancestors t [| true |])

let test_with_pre_existing () =
  let t = sample () in
  let t' = Tree.with_pre_existing t [ (2, 2); (3, 1) ] in
  check (Alcotest.list ci) "new pre set" [ 2; 3 ] (Tree.pre_existing t');
  check (Alcotest.option ci) "mode of 2" (Some 2) (Tree.initial_mode t' 2);
  check cb "old pre dropped" false (Tree.is_pre_existing t' 1);
  (* original untouched *)
  check cb "original intact" true (Tree.is_pre_existing t 1)

let test_with_clients () =
  let t = sample () in
  let t' = Tree.with_clients t (fun j -> if j = 0 then [ 9 ] else []) in
  check ci "new root load" 9 (Tree.client_load t' 0);
  check ci "cleared elsewhere" 0 (Tree.client_load t' 1);
  check cb "pre preserved" true (Tree.is_pre_existing t' 1);
  check ci "original load intact" 5 (Tree.client_load t 1)

let test_serialization_roundtrip () =
  let t = sample () in
  let t' = Tree.of_string (Tree.to_string t) in
  check cb "roundtrip equal" true (Tree.equal t t')

let test_serialization_malformed () =
  Alcotest.check_raises "garbage" (Invalid_argument "Tree.of_string: malformed input")
    (fun () -> ignore (Tree.of_string "nonsense"));
  Alcotest.check_raises "bad field" (Invalid_argument "Tree.of_string: malformed input")
    (fun () -> ignore (Tree.of_string "-1 px c"))

let test_of_parents_validation () =
  let bad () =
    ignore
      (Tree.of_parents ~parents:[| 0 |] ~clients:[| [] |] ~pre:[| None |])
  in
  Alcotest.check_raises "self root" (Invalid_argument "Tree: node 0 must be the root") bad;
  let cyclic () =
    ignore
      (Tree.of_parents ~parents:[| -1; 2; 1 |]
         ~clients:[| []; []; [] |]
         ~pre:[| None; None; None |])
  in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree: disconnected or cyclic parent structure") cyclic;
  let negative_requests () =
    ignore
      (Tree.of_parents ~parents:[| -1 |] ~clients:[| [ -1 ] |] ~pre:[| None |])
  in
  Alcotest.check_raises "negative requests" (Invalid_argument "Tree: negative request count")
    negative_requests

let test_single_node () =
  let t = Tree.build (Tree.node ~clients:[ 3 ] []) in
  check ci "size" 1 (Tree.size t);
  check ci "height" 0 (Tree.height t);
  check (Alcotest.list ci) "postorder" [ 0 ] (Array.to_list (Tree.postorder t))

let test_equal () =
  let t = sample () in
  check cb "reflexive" true (Tree.equal t t);
  let t' = Tree.with_clients t (fun j -> Tree.clients t j) in
  check cb "rebuilt equal" true (Tree.equal t t');
  let t'' = Tree.with_clients t (fun _ -> []) in
  check cb "different clients differ" false (Tree.equal t t'')

let () =
  Alcotest.run "tree"
    [
      ( "structure",
        [
          Alcotest.test_case "build shape" `Quick test_build_shape;
          Alcotest.test_case "clients" `Quick test_clients;
          Alcotest.test_case "pre-existing" `Quick test_pre_existing;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "equality" `Quick test_equal;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "orders" `Quick test_traversal;
          Alcotest.test_case "subtree metrics" `Quick test_subtree_metrics;
          Alcotest.test_case "ancestors" `Quick test_ancestors;
          Alcotest.test_case "mark_ancestors" `Quick test_mark_ancestors;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "with_pre_existing" `Quick test_with_pre_existing;
          Alcotest.test_case "with_clients" `Quick test_with_clients;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "malformed" `Quick test_serialization_malformed;
          Alcotest.test_case "of_parents validation" `Quick test_of_parents_validation;
        ] );
    ]
