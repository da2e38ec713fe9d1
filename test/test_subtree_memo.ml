(* The incremental memo over a toy table type (an int array of arena
   handles, one cell per slot): longest-prefix resume and its stamp,
   eviction after two unread solves with the storage handed back to the
   next take of that class, a reset on a new key, and compaction
   rewriting every cached handle while keeping the sharing between
   them. *)

open Helpers

let recycled = Stats_counters.counter "test_subtree_memo.recycled"
let compactions = Stats_counters.counter "test_subtree_memo.compactions"

let create () : (string, int array, unit) Subtree_memo.t =
  Subtree_memo.create ~seed:0x1234L
    ~fresh:(fun k -> Array.make (1 lsl k) 0)
    ~cells:Array.length
    ~relocate:(fun f t -> Array.iteri (fun i h -> t.(i) <- f h) t)
    ~recycled ~compactions

(* Node 0 with children 1, 2, 3; the fingerprints are indexed by node. *)
let children = [| 1; 2; 3 |]
let fps () = [| 0L; 11L; 22L; 33L |]

let resume m fps =
  Subtree_memo.resume m ~fps ~client:5 ~traced:false ~start:[||] 0 children

let solve m f =
  Subtree_memo.prepare m "key";
  f ();
  Subtree_memo.finish m

let test_resume () =
  let m = create () in
  let fps = fps () in
  let t1 = Subtree_memo.take m 4 and t2 = Subtree_memo.take m 4 in
  solve m (fun () ->
      let keys, best, _ = resume m fps in
      check ci "cold memo resumes nothing" 0 best;
      Subtree_memo.add_prefix m 0 keys 1 t1;
      Subtree_memo.add_prefix m 0 keys 2 t2);
  solve m (fun () ->
      let _, best, t = resume m fps in
      check ci "longest cached prefix" 2 best;
      check cb "its table" true (t == t2);
      let dirty = Array.copy fps in
      dirty.(2) <- 99L;
      let _, best, t = resume m dirty in
      check ci "prefix before the dirty child" 1 best;
      check cb "its table" true (t == t1));
  (* the first prefix was last read in solve 2: it outlives solve 3 *)
  solve m ignore;
  check ci "both prefixes read in solve 2 survive" 2 (Subtree_memo.size m);
  solve m (fun () ->
      let _, best, _ = resume m fps in
      check ci "still cached" 2 best);
  solve m ignore;
  check ci "the unread prefix is gone" 1 (Subtree_memo.size m)

let test_evict_recycles () =
  let m = create () in
  let fps = fps () in
  let dropped = ref [||] in
  solve m (fun () ->
      let keys, _, _ = resume m fps in
      Subtree_memo.add_prefix m 0 keys 3 (Subtree_memo.take m 8);
      dropped := Subtree_memo.take m 8;
      Subtree_memo.add_ext m 1 11L !dropped);
  solve m (fun () -> ignore (resume m fps));
  check ci "unread for one solve: kept" 2 (Subtree_memo.size m);
  let before = Stats_counters.value recycled in
  solve m (fun () -> ignore (resume m fps));
  check ci "unread for two solves: evicted" 1 (Subtree_memo.size m);
  check cb "the extension is gone" true (Subtree_memo.find_ext m 1 11L = None);
  let t = Subtree_memo.take m 5 in
  check cb "the next take of that class hands it back" true (t == !dropped);
  check ci "counted as recycled" (before + 1) (Stats_counters.value recycled);
  ignore (Subtree_memo.take m 8);
  check ci "the class's free list is empty again" (before + 1)
    (Stats_counters.value recycled)

let test_reset () =
  let m = create () in
  let fps = fps () in
  let a = ref [||] and b = ref [||] in
  solve m (fun () ->
      let keys, _, _ = resume m fps in
      a := Subtree_memo.take m 2;
      b := Subtree_memo.take m 2;
      Subtree_memo.add_prefix m 0 keys 3 !a;
      Subtree_memo.add_ext m 1 11L !b;
      ignore (Arena.leaf (Subtree_memo.arena m) ~node:1 ~flow:1));
  solve m (fun () -> ignore (resume m fps));
  solve m ignore;
  check ci "one table evicted into the free list" 1 (Subtree_memo.size m);
  Subtree_memo.prepare m "other key";
  check ci "both tables empty" 0 (Subtree_memo.size m);
  let _, best, _ = resume m fps in
  check ci "nothing to resume" 0 best;
  check ci "arena emptied" 1 (Arena.length (Subtree_memo.arena m));
  let before = Stats_counters.value recycled in
  let t = Subtree_memo.take m 2 in
  check cb "free lists emptied" false (t == !a || t == !b);
  check ci "fresh storage" before (Stats_counters.value recycled);
  Subtree_memo.finish m

let test_compaction () =
  let m = create () in
  let arena = Subtree_memo.arena m in
  let fps = fps () in
  let before = Stats_counters.value compactions in
  let t1 = Subtree_memo.take m 2 and t2 = Subtree_memo.take m 1 in
  let l1 = ref [] and l2 = ref [] in
  solve m (fun () ->
      let keys, _, _ = resume m fps in
      let leaf node = Arena.leaf arena ~node ~flow:node in
      let s = Arena.append arena (leaf 1) (leaf 2) in
      (* dead cells, enough to cross the compaction threshold *)
      for i = 1 to 70_000 do
        ignore (leaf i)
      done;
      t1.(0) <- Arena.snoc arena s ~node:3 ~flow:3;
      t1.(1) <- Arena.snoc arena s ~node:4 ~flow:4;
      t2.(0) <- t1.(0);
      l1 := Arena.to_list arena t1.(0);
      l2 := Arena.to_list arena t1.(1);
      Subtree_memo.add_prefix m 0 keys 3 t1;
      Subtree_memo.add_ext m 1 11L t2);
  check ci "compacted once" (before + 1) (Stats_counters.value compactions);
  let pairs = Alcotest.(list (pair int int)) in
  check pairs "first handle rewritten" !l1 (Arena.to_list arena t1.(0));
  check pairs "second handle rewritten" !l2 (Arena.to_list arena t1.(1));
  check ci "a handle shared across tables stays shared" t1.(0) t2.(0);
  (* leaves 1..4, the shared cat and the two root cats, plus the
     reserved empty cell: the shared sub-placement was copied once *)
  check ci "only live cells remain" 8 (Arena.length arena)

let () =
  Alcotest.run "subtree_memo"
    [
      ( "memo",
        [
          Alcotest.test_case "longest-prefix resume" `Quick test_resume;
          Alcotest.test_case "eviction recycles storage" `Quick test_evict_recycles;
          Alcotest.test_case "reset on a new key" `Quick test_reset;
          Alcotest.test_case "compaction rewrites handles" `Quick test_compaction;
        ] );
    ]
