let src =
  Logs.Src.create "replica.dp_power" ~doc:"MinPower-BoundedCost dynamic program"

module Log = (val Logs.src_log src : Logs.LOG)

module Key = struct
  type t = int array

  let equal (a : int array) b = a = b

  let hash a =
    Array.fold_left (fun h x -> (h * 31) + x + 1) 17 a land max_int
end

module Tbl = Hashtbl.Make (Key)

type result = {
  solution : Solution.t;
  power : float;
  cost : float;
  tally : Cost.tally;
}

(* Observability: every table cell allocated, every cartesian product
   attempted, every pair rejected by the capacity check and every cell
   dropped by dominance pruning is accounted here, plus a high-water
   mark for table size and per-phase wall time. Counters accumulate
   until [Stats_counters.reset]; totals are identical at any [domains]
   value (atomic adds commute, and the set of tables built does not
   depend on the fan-out) and identical between the packed and wide
   representations (same set semantics, same product enumeration —
   bench-diff pins them Exact). *)
let c_cells = Stats_counters.counter "dp_power.cells_created"
let c_products = Stats_counters.counter "dp_power.merge_products"
let c_capacity = Stats_counters.counter "dp_power.capacity_rejected"
let c_pruned = Stats_counters.counter "dp_power.dominance_pruned"
let c_peak = Stats_counters.counter "dp_power.peak_table_size"
let t_tables = Stats_counters.timer "dp_power.tables"
let t_enumerate = Stats_counters.timer "dp_power.enumerate"
let c_memo_hits = Stats_counters.counter "dp_power.memo_hits"
let c_memo_partial = Stats_counters.counter "dp_power.memo_partial"
let c_memo_misses = Stats_counters.counter "dp_power.memo_misses"
let c_memo_compactions = Stats_counters.counter "dp_power.memo_compactions"
let c_memo_recycled = Stats_counters.counter "dp_power.memo_recycled"

(* Structured observability (replicaml.obs): per-node spans nest the
   child-merge and prune phases under each node's solve, and the
   per-node merge-product count feeds a log2 histogram — so one trace
   shows *where inside a solve* the cartesian blowup happens, not just
   the aggregate totals above. Span sites are guarded by
   [Span.enabled] (a single atomic load) so the disabled path
   allocates nothing; the histogram, like the counters, is always
   on. *)
module Span = Replica_obs.Span

let h_products =
  Replica_obs.Histogram.create "dp_power.merge_products_per_node"

(* Cell key layout: [| n_1; ...; n_M; e_11; ...; e_MM; flow |] — the
   exact per-mode server counts AND the number of requests traversing
   the node. Keeping the flow in the key (rather than minimizing it per
   state, as a literal reading of the paper's §4.3 suggests) is
   necessary under load-determined modes: raising a subtree's residual
   flow can keep an upstream reused server in its original (higher)
   mode and thereby avoid a positive changed_{i,i'} cost, so two
   placements with the same counts but different flows are NOT
   interchangeable once mode-change costs are involved. Two placements
   agreeing on counts AND flow are fully interchangeable (same cost,
   same power, same influence upstream), so one representative
   placement per key suffices.

   Two concrete representations implement that abstract key: the
   {e packed} fast path ({!Packed_key}: the whole vector bit-packed
   into one unboxed int, tables as {!Int_table}) and the {e wide}
   fallback (this historical [int array] / polymorphic-[Hashtbl] form)
   used when the instance's field widths cannot fit 62 bits. Both carry
   placements as {!Arena} handles and produce the same optimum, the
   same counter totals, and the same set of table keys; only the
   tie-broken representative placements may differ. *)

let state_size m = m + (m * m)

let flow_of key = key.(Array.length key - 1)

let bump key ~m ~initial ~operating =
  let s = Array.copy key in
  let idx =
    match initial with
    | None -> operating - 1
    | Some i0 -> m + ((i0 - 1) * m) + (operating - 1)
  in
  s.(idx) <- s.(idx) + 1;
  s

(* Scratch variant: overwrite [dst] instead of allocating — the wide
   enumeration path extends every root cell transiently, so one
   preallocated key serves all candidates. *)
let bump_into dst key ~m ~initial ~operating =
  Array.blit key 0 dst 0 (Array.length key);
  let idx =
    match initial with
    | None -> operating - 1
    | Some i0 -> m + ((i0 - 1) * m) + (operating - 1)
  in
  dst.(idx) <- dst.(idx) + 1

(* First-wins insert; the placement is only built when the key is new,
   so the arena grows by the cells that land. *)
let set tbl key ~created placed =
  if not (Tbl.mem tbl key) then begin
    Tbl.replace tbl key (placed ());
    incr created
  end

let initial_mode_default tree j =
  match Tree.initial_mode tree j with Some m -> m | None -> 1

(* Pre-existing servers per initial mode — hoisted out of the
   per-candidate tally computation (it used to rebuild the whole
   [Tree.pre_existing] list for every root cell). *)
let available_of tree ~m =
  let available = Array.make m 0 in
  List.iter
    (fun j ->
      let i0 = initial_mode_default tree j in
      available.(i0 - 1) <- available.(i0 - 1) + 1)
    (Tree.pre_existing tree);
  available

(* Packed layout selection. First try uniform widths (every count
   field sized for the node count N): the layout then depends only on
   (N, M, W), so epoch views of one network share it and the
   incremental memo survives pre-existing-set churn. If that exceeds
   the 62-bit budget, retry with tight per-field maxima — e_{i0,op}
   can never exceed the number of pre-existing servers initially at
   mode i0 (0 bits when there are none). Only if even the tight
   layout overflows does the solver fall back to the wide keys. *)
let layout_for tree ~modes =
  let m = Modes.count modes in
  let n = Tree.size tree in
  let w = Modes.max_capacity modes in
  let nf = m + (m * m) in
  match Packed_key.make ~m ~count_max:(Array.make nf n) ~flow_max:w with
  | Some l -> Some l
  | None ->
      let e_counts = Array.make m 0 in
      List.iter
        (fun j ->
          let i0 = initial_mode_default tree j in
          e_counts.(i0 - 1) <- e_counts.(i0 - 1) + 1)
        (Tree.pre_existing tree);
      let tight =
        Array.init nf (fun i -> if i < m then n else e_counts.((i - m) / m))
      in
      Packed_key.make ~m ~count_max:tight ~flow_max:w

let packed_bits tree ~modes =
  Option.map Packed_key.total_bits (layout_for tree ~modes)

(* Dominance pruning: among cells with identical count entries
   (n_1..n_M, e_11..e_MM), keep only the one with minimal flow.

   Why this is safe — the mirror argument. Let k1 = (counts, f1) and
   k2 = (counts, f2) with f1 < f2 be cells of the same table at node j,
   and let S2 be ANY completion of k2 (decisions at every node merged
   later, each server's operating mode forced by its absorbed load).
   Mirror S2 onto k1: keep every decision identical. Every capacity
   check still passes (each flow sum only shrinks, by f2 - f1, on j's
   root path). The two runs differ at exactly one server — the first
   one above j that absorbs j's residual flow (or the root decision,
   which absorbs any nonzero flow): it carries load L - (f2 - f1)
   instead of L, hence operates at mode op1 <= op2. Since
   [Power.of_mode] is strictly increasing in the mode:

   - if op1 = op2, the final root keys coincide, and (power, cost) are
     functions of the key alone — the mirror is exactly as good;
   - if op1 < op2, the mirror has strictly lower power.

   Consequently, for the pure MinPower problem (bound = infinity, any
   cost model): the optimum power P* and the minimal cost c_min among
   optimum-power placements are both preserved — a completion of k2
   achieving power P* at cost c_min cannot have op1 < op2, since its
   mirror would then beat the optimum; so its mirror realizes the same
   final key and thus the same power and cost.

   Under a finite cost bound or for the Pareto frontier, the op1 < op2
   case must also not *increase* cost, which requires the cost model to
   be mode-monotone ([Cost.is_mode_monotone]): create_i and every
   changed_{i0,·} row non-decreasing in the operating mode. Then the
   mirror's (power, cost) is pointwise <= S2's, so no frontier point
   and no bound-feasible optimum is lost. The paper's §5.2 models are
   NOT mode-monotone (off-diagonal changed > 0 versus the zero
   diagonal), which is exactly the unsoundness of §4.3's literal
   flow-minimal table documented in DESIGN.md — hence pruning defaults
   to on only where the argument above applies, and stays overridable
   for differential testing. *)
let prune_dominated ~m tbl =
  let sm = state_size m in
  if Tbl.length tbl <= 1 then tbl
  else begin
    let tracing = Span.enabled () in
    if tracing then Span.begin_span "dp_power.prune";
    let best = Tbl.create (Tbl.length tbl) in
    Tbl.iter
      (fun key _ ->
        let counts = Array.sub key 0 sm in
        match Tbl.find_opt best counts with
        | Some k0 when flow_of k0 <= flow_of key -> ()
        | Some _ | None -> Tbl.replace best counts key)
      tbl;
    let dropped = Tbl.length tbl - Tbl.length best in
    let result =
      if dropped = 0 then tbl
      else begin
        Stats_counters.add c_pruned dropped;
        let out = Tbl.create (Tbl.length best) in
        Tbl.iter (fun _ key -> Tbl.replace out key (Tbl.find tbl key)) best;
        out
      end
    in
    if tracing then
      Span.end_span
        ~args:
          [ ("cells_in", Span.Int (Tbl.length tbl)); ("pruned", Span.Int dropped) ]
        ();
    result
  end

(* Per-depth scratch buffers of the packed path: the fold at depth d
   needs the accumulator and its double buffer, the current child's
   extension, and two prune scratches (count-group -> minimal key, and
   the compacted output). All five are reused across every node at
   that depth, so a whole solve touches O(height) tables and the merge
   inner loop allocates zero GC words — [clear] keeps backing
   storage. *)
type pslot = {
  mutable p_acc : Int_table.t;
  mutable p_alt : Int_table.t;
  mutable p_ext : Int_table.t;
  p_best : Int_table.t;
  mutable p_tmp : Int_table.t;
}

(* Incremental re-solving goes through {!Subtree_memo}, as in
   Dp_withpre: extended child tables are cached by the child's subtree
   fingerprint and every prefix of every node's child-merge fold by a
   fingerprint chain, so an epoch re-solve recomputes only the tables
   under demand that actually moved. The memo forces the sequential
   merge path (no [Par] fan-out — the cache is not domain-safe), and
   it serves the packed layout only: a wide instance solves memo-less.

   The memo is a lookup hook inside the one packed traversal ([pnode]):
   every table is built in the per-depth scratch slots, which the memo
   keeps from one solve to the next, and the cache holds copies of the
   slots' results in storage drawn from the memo's free lists. Tables
   depend on the mode ladder, the prune flag and the packed layout,
   which together form the memo's reset key. *)
type memo = (int list * bool * Packed_key.layout, Int_table.t, pslot) Subtree_memo.t

let memo () =
  Subtree_memo.create ~seed:0x9E6C63D0876A9A35L
    ~fresh:(fun k -> Int_table.create ~capacity:(1 lsl k) ())
    ~cells:Int_table.capacity
    ~relocate:(fun f t ->
      for i = 0 to Int_table.length t - 1 do
        Int_table.set_val t i (f (Int_table.val_at t i))
      done)
    ~recycled:c_memo_recycled ~compactions:c_memo_compactions

(* A cached copy of a scratch table, in storage from the memo (whose
   classes count dense capacity, which [Int_table.create] makes at
   least 8). *)
let cache_copy mm src =
  let t = Subtree_memo.take mm (max 8 (Int_table.length src)) in
  Int_table.assign ~dst:t src;
  t

let memo_size = Subtree_memo.size

(* Per-node spans only for subtrees of at least this many nodes —
   same rationale as [Dp_withpre.span_min_subtree]: the packed kernels
   made small-subtree merges cheaper than the span bookkeeping. *)
let span_min_subtree = 16

let traced tree j =
  Span.enabled () && Tree.subtree_size tree j >= span_min_subtree

(* ------------------------------------------------------------------ *)
(* Wide (int array / Hashtbl) fallback path.                          *)
(* ------------------------------------------------------------------ *)

(* Table of node j over servers strictly below j: key -> placement
   handle in [arena]. [domains > 1] fans sibling subtrees out over
   OCaml 5 domains at the first node with several children; each
   child's table is a pure function of its subtree, built sequentially
   inside its domain in a private arena and grafted back, and the
   reduction over child tables below keeps the sequential child order
   — so the result is bit-identical to [domains = 1]. *)
let rec table_of arena tree ~modes ~prune ~domains j =
  if not (traced tree j) then node_table arena tree ~modes ~prune ~domains j
  else begin
    Span.begin_span "dp_power.node";
    let tbl =
      try node_table arena tree ~modes ~prune ~domains j
      with e ->
        Span.end_span ();
        raise e
    in
    Span.end_span
      ~args:
        [
          ("node", Span.Int j);
          ("subtree_size", Span.Int (Tree.subtree_size tree j));
          ("cells", Span.Int (Tbl.length tbl));
        ]
      ();
    tbl
  end

and node_table arena tree ~modes ~prune ~domains j =
  let m = Modes.count modes in
  let w = Modes.max_capacity modes in
  let start = Tbl.create 16 in
  let client = Tree.client_load tree j in
  if client <= w then begin
    let key = Array.make (state_size m + 1) 0 in
    key.(state_size m) <- client;
    Tbl.replace start key Arena.empty;
    Stats_counters.incr c_cells
  end;
  let extended_tables =
    match Tree.children tree j with
    | [] -> []
    | [ c ] -> [ extended_of arena tree ~modes ~prune ~domains c ]
    | _ :: _ :: _ as children when domains > 1 ->
        Par.map ~domains
          (fun c ->
            let own = Arena.create () in
            (extended_of own tree ~modes ~prune ~domains:1 c, own))
          children
        |> List.map (fun ((c, ext), src) ->
               (* [replace] on a present key keeps its place in the
                  table, hence the iteration order merges read *)
               Tbl.fold (fun key h acc -> (key, h) :: acc) ext []
               |> List.iter (fun (key, h) ->
                      Tbl.replace ext key (Arena.graft ~src ~dst:arena h));
               (c, ext))
    | children ->
        List.map
          (fun c -> extended_of arena tree ~modes ~prune ~domains:1 c)
          children
  in
  List.fold_left (merge arena ~modes ~prune) start extended_tables

(* The child's table extended with the decision at c itself: its
   operating mode is forced by the flow it absorbs. *)
and extended_of arena tree ~modes ~prune ~domains c =
  let m = Modes.count modes in
  let sm = state_size m in
  let sub = table_of arena tree ~modes ~prune ~domains c in
  let extended = Tbl.create (2 * Tbl.length sub) in
  let c_initial =
    if Tree.is_pre_existing tree c then Some (initial_mode_default tree c)
    else None
  in
  let created = ref 0 in
  Tbl.iter
    (fun key placed ->
      set extended key ~created (fun () -> placed);
      let flow = flow_of key in
      let operating = Modes.mode_of_load modes flow in
      let key' = bump key ~m ~initial:c_initial ~operating in
      key'.(sm) <- 0;
      set extended key' ~created (fun () -> Arena.snoc arena placed ~node:c ~flow))
    sub;
  Stats_counters.add c_cells !created;
  let extended = if prune then prune_dominated ~m extended else extended in
  (c, extended)

and merge arena ~modes ~prune left (c, extended) =
  let m = Modes.count modes in
  let sm = state_size m in
  let w = Modes.max_capacity modes in
  Log.debug (fun f ->
      f "merge child %d: %d x %d cells" c (Tbl.length left)
        (Tbl.length extended));
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.merge";
  let merged = Tbl.create (Tbl.length left * 2) in
  let products = ref 0 and rejected = ref 0 and created = ref 0 in
  Tbl.iter
    (fun k1 p1 ->
      Tbl.iter
        (fun k2 p2 ->
          incr products;
          let flow = k1.(sm) + k2.(sm) in
          if flow <= w then begin
            let key = Array.init (sm + 1) (fun i -> k1.(i) + k2.(i)) in
            key.(sm) <- flow;
            set merged key ~created (fun () -> Arena.append arena p1 p2)
          end
          else incr rejected)
        extended)
    left;
  Stats_counters.add c_products !products;
  Stats_counters.add c_capacity !rejected;
  Stats_counters.add c_cells !created;
  Stats_counters.record_max c_peak (Tbl.length merged);
  Replica_obs.Histogram.observe h_products !products;
  let result = if prune then prune_dominated ~m merged else merged in
  if tracing then
    Span.end_span
      ~args:
        [
          ("child", Span.Int c);
          ("left_cells", Span.Int (Tbl.length left));
          ("child_cells", Span.Int (Tbl.length extended));
          ("products", Span.Int !products);
          ("merged_cells", Span.Int (Tbl.length result));
        ]
      ();
  result

(* ------------------------------------------------------------------ *)
(* Packed fast path: unboxed keys, flat tables, arena placements.     *)
(* ------------------------------------------------------------------ *)

type pctx = {
  lay : Packed_key.layout;
  arena : Arena.t;
  mutable pslots : pslot array;
  pmemo : (memo * int64 array) option;
  (* per-merge scratch counters: mutable fields, not refs, so the hot
     path allocates nothing even without escape analysis *)
  mutable n_products : int;
  mutable n_rejected : int;
  mutable n_created : int;
}

let fresh_pslot () =
  {
    p_acc = Int_table.create ();
    p_alt = Int_table.create ();
    p_ext = Int_table.create ();
    p_best = Int_table.create ();
    p_tmp = Int_table.create ();
  }

let make_pctx ?pmemo lay =
  let arena, pslots =
    match pmemo with
    | Some (m, _) -> (Subtree_memo.arena m, Subtree_memo.slots m)
    | None -> (Arena.create (), [||])
  in
  {
    lay;
    arena;
    pslots;
    pmemo;
    n_products = 0;
    n_rejected = 0;
    n_created = 0;
  }

let pslot pc depth =
  let n = Array.length pc.pslots in
  if depth >= n then
    pc.pslots <-
      Array.init
        (max (depth + 1) (2 * n))
        (fun i -> if i < n then pc.pslots.(i) else fresh_pslot ());
  pc.pslots.(depth)

(* Flow-dominance prune over a packed table. Count groups are
   [key lsr flow_bits]; within a group the flow-minimal cell is the
   minimal packed key, so [best] maps group -> minimal key. Writes the
   surviving cells into [out] (cleared here) in first-encounter group
   order and returns it; returns [tbl] untouched when nothing is
   dominated. Counter totals match the wide prune exactly: same
   groups, same survivors. *)
let pprune lay ~best ~out tbl =
  if Int_table.length tbl <= 1 then tbl
  else begin
    let tracing = Span.enabled () && Int_table.length tbl >= 1024 in
    if tracing then Span.begin_span "dp_power.prune";
    Int_table.clear best;
    let fb = Packed_key.flow_bits lay in
    let len = Int_table.length tbl in
    for i = 0 to len - 1 do
      let key = Int_table.key_at tbl i in
      let g = key lsr fb in
      let r = Int_table.reserve best g in
      if r >= 0 then Int_table.set_val best r key
      else begin
        let j = Int_table.index best g in
        if Int_table.val_at best j > key then Int_table.set_val best j key
      end
    done;
    let dropped = len - Int_table.length best in
    let result =
      if dropped = 0 then tbl
      else begin
        Stats_counters.add c_pruned dropped;
        Int_table.clear out;
        for i = 0 to Int_table.length best - 1 do
          let key = Int_table.val_at best i in
          let r = Int_table.reserve out key in
          Int_table.set_val out r (Int_table.get tbl key)
        done;
        out
      end
    in
    if tracing then
      Span.end_span
        ~args:[ ("cells_in", Span.Int len); ("pruned", Span.Int dropped) ]
        ();
    result
  end

(* Extend [sub] (the child's table) with the decision at [c] itself,
   writing into [ext] (cleared here). First-wins inserts, counting
   created cells through [pc.n_created]; the arena push happens only
   when the insert lands, so the loop allocates nothing. *)
let pextend pc tree ~modes ext sub c =
  let lay = pc.lay in
  let arena = pc.arena in
  Int_table.clear ext;
  let c_pre = Tree.is_pre_existing tree c in
  let i0 = if c_pre then initial_mode_default tree c else 0 in
  pc.n_created <- 0;
  let len = Int_table.length sub in
  for i = 0 to len - 1 do
    let key = Int_table.key_at sub i in
    let placed = Int_table.val_at sub i in
    let r = Int_table.reserve ext key in
    if r >= 0 then begin
      Int_table.set_val ext r placed;
      pc.n_created <- pc.n_created + 1
    end;
    let flow = Packed_key.flow lay key in
    let operating = Modes.mode_of_load modes flow in
    let field =
      if c_pre then Packed_key.e_field lay ~initial:i0 ~operating
      else Packed_key.n_field lay ~operating
    in
    let key' = Packed_key.bump lay (Packed_key.zero_flow lay key) field in
    let r' = Int_table.reserve ext key' in
    if r' >= 0 then begin
      Int_table.set_val ext r' (Arena.snoc arena placed ~node:c ~flow);
      pc.n_created <- pc.n_created + 1
    end
  done;
  Stats_counters.add c_cells pc.n_created

(* The convolution kernel: [left] x [ext] into [into] (cleared here).
   Packed keys of disjoint subtrees add field-wise — the flow sum is
   checked against w before the add, every other field is bounded by
   the instance-wide maxima the layout was sized from, so no field can
   carry. The loop body is probes, int adds and arena pushes: zero GC
   words. *)
let pconvolve pc ~modes ~into left ext =
  let lay = pc.lay in
  let arena = pc.arena in
  let w = Modes.max_capacity modes in
  let llen = Int_table.length left and rlen = Int_table.length ext in
  (* Span only the convolutions with enough products to dwarf the span
     bookkeeping itself — small-table merges are a handful of int ops. *)
  let tracing = Span.enabled () && llen * rlen >= 4096 in
  if tracing then Span.begin_span "dp_power.merge";
  Int_table.clear into;
  pc.n_products <- 0;
  pc.n_rejected <- 0;
  pc.n_created <- 0;
  for i = 0 to llen - 1 do
    let k1 = Int_table.key_at left i in
    let p1 = Int_table.val_at left i in
    let f1 = Packed_key.flow lay k1 in
    for j = 0 to rlen - 1 do
      let k2 = Int_table.key_at ext j in
      let flow = f1 + Packed_key.flow lay k2 in
      if flow <= w then begin
        let r = Int_table.reserve into (k1 + k2) in
        if r >= 0 then begin
          Int_table.set_val into r
            (Arena.append arena p1 (Int_table.val_at ext j));
          pc.n_created <- pc.n_created + 1
        end
      end
      else pc.n_rejected <- pc.n_rejected + 1
    done;
    pc.n_products <- pc.n_products + rlen
  done;
  Stats_counters.add c_products pc.n_products;
  Stats_counters.add c_capacity pc.n_rejected;
  Stats_counters.add c_cells pc.n_created;
  Stats_counters.record_max c_peak (Int_table.length into);
  Replica_obs.Histogram.observe h_products pc.n_products;
  if tracing then
    Span.end_span
      ~args:
        [
          ("left_cells", Span.Int llen);
          ("child_cells", Span.Int rlen);
          ("products", Span.Int pc.n_products);
          ("merged_cells", Span.Int (Int_table.length into));
        ]
      ()

(* Start cell of a node's table: no servers below, the client load
   flows through — the packed key is just the flow field, i.e. the
   load itself. *)
let pstart _pc ~modes tbl tree j =
  Int_table.clear tbl;
  let w = Modes.max_capacity modes in
  let client = Tree.client_load tree j in
  if client <= w then begin
    let r = Int_table.reserve tbl client in
    Int_table.set_val tbl r Arena.empty;
    Stats_counters.incr c_cells
  end

(* The packed recursion, with and without the memo. The fold at each
   node runs over the per-depth scratch slot: extend the child into
   [p_ext] (pruning via [p_tmp]), convolve the accumulator x [p_ext]
   into [p_alt] (pruning via [p_tmp] again), then swap [p_acc]/[p_alt].
   All swaps permute the five distinct tables of the slot, so no buffer
   is ever read and written in the same kernel. *)
let rec ptable pc tree ~modes ~prune ~domains ~depth j =
  if not (traced tree j) then pnode pc tree ~modes ~prune ~domains ~depth j
  else begin
    Span.begin_span "dp_power.node";
    let tbl =
      try pnode pc tree ~modes ~prune ~domains ~depth j
      with e ->
        Span.end_span ();
        raise e
    in
    Span.end_span
      ~args:
        [
          ("node", Span.Int j);
          ("subtree_size", Span.Int (Tree.subtree_size tree j));
          ("cells", Span.Int (Int_table.length tbl));
        ]
      ();
    tbl
  end

and pnode pc tree ~modes ~prune ~domains ~depth j =
  let s = pslot pc depth in
  pstart pc ~modes s.p_acc tree j;
  let children = Tree.children_array tree j in
  let k = Array.length children in
  if k = 0 then s.p_acc
  else
    match pc.pmemo with
    | Some (mm, fps) -> pmemo_fold pc mm fps tree ~modes ~prune ~depth s j children
    | None when k >= 2 && domains > 1 ->
        (* Sibling fan-out: each child builds its extension in a private
           pctx + arena; grafting back and folding keeps the sequential
           child order, so the result is bit-identical to [domains = 1]. *)
        let exts =
          Par.map ~domains
            (fun c -> pextended_standalone pc.lay tree ~modes ~prune c)
            (Array.to_list children)
        in
        List.iter
          (fun (ext, child_arena) ->
            let len = Int_table.length ext in
            for i = 0 to len - 1 do
              Int_table.set_val ext i
                (Arena.graft ~src:child_arena ~dst:pc.arena
                   (Int_table.val_at ext i))
            done;
            pmerge_step pc ~modes ~prune s ~left:s.p_acc ext)
          exts;
        s.p_acc
    | None ->
        let domains = if k = 1 then domains else 1 in
        for i = 0 to k - 1 do
          pchild_ext pc tree ~modes ~prune ~domains ~depth s children.(i);
          pmerge_step pc ~modes ~prune s ~left:s.p_acc s.p_ext
        done;
        s.p_acc

(* The memo hook. Node j's fold resumes from its longest cached prefix:
   the first merge reads that cached table directly, so it never enters
   the slot's scratch, and a full hit returns it as node j's table.
   Each remaining child's extension is a cached extension or is built
   in the slot; every extension built and every merge result is cached
   as a copy. *)
and pmemo_fold pc mm fps tree ~modes ~prune ~depth s j children =
  let k = Array.length children in
  let keys, best, table =
    Subtree_memo.resume mm ~fps ~client:(Tree.client_load tree j)
      ~traced:(traced tree j) ~start:s.p_acc j children
  in
  if best > 0 && best < k then Stats_counters.incr c_memo_partial;
  let left = ref table in
  for i = best + 1 to k do
    let c = children.(i - 1) in
    let ext =
      match Subtree_memo.find_ext mm c fps.(c) with
      | Some t ->
          (* a zero-length span keeps the skipped subtree visible *)
          Stats_counters.incr c_memo_hits;
          if Span.enabled () then begin
            Span.begin_span "dp_power.memo_hit";
            Span.end_span ~args:[ ("node", Span.Int c) ] ()
          end;
          t
      | None ->
          Stats_counters.incr c_memo_misses;
          pchild_ext pc tree ~modes ~prune ~domains:1 ~depth s c;
          Subtree_memo.add_ext mm c fps.(c) (cache_copy mm s.p_ext);
          s.p_ext
    in
    pmerge_step pc ~modes ~prune s ~left:!left ext;
    left := s.p_acc;
    Subtree_memo.add_prefix mm j keys i (cache_copy mm s.p_acc)
  done;
  !left

(* Child c's table extended with the decision at c itself, left in the
   slot's [p_ext]. *)
and pchild_ext pc tree ~modes ~prune ~domains ~depth s c =
  let sub = ptable pc tree ~modes ~prune ~domains ~depth:(depth + 1) c in
  pextend pc tree ~modes s.p_ext sub c;
  if prune then begin
    let r = pprune pc.lay ~best:s.p_best ~out:s.p_tmp s.p_ext in
    if r != s.p_ext then begin
      let t = s.p_ext in
      s.p_ext <- s.p_tmp;
      s.p_tmp <- t
    end
  end

(* One fold step: [left] x [ext] becomes the slot's accumulator. [left]
   is the slot's [p_acc] or a cached table, never [p_alt]/[p_tmp]. *)
and pmerge_step pc ~modes ~prune s ~left ext =
  pconvolve pc ~modes ~into:s.p_alt left ext;
  (if prune then begin
     let r = pprune pc.lay ~best:s.p_best ~out:s.p_tmp s.p_alt in
     if r != s.p_alt then begin
       let t = s.p_alt in
       s.p_alt <- s.p_tmp;
       s.p_tmp <- t
     end
   end);
  let t = s.p_acc in
  s.p_acc <- s.p_alt;
  s.p_alt <- t

and pextended_standalone lay tree ~modes ~prune c =
  let pc = make_pctx lay in
  let s = pslot pc 0 in
  pchild_ext pc tree ~modes ~prune ~domains:1 ~depth:0 s c;
  (s.p_ext, pc.arena)

(* ------------------------------------------------------------------ *)
(* Enumeration and the public entry points.                           *)
(* ------------------------------------------------------------------ *)

let tally_of_state ~modes ~available key =
  let m = Modes.count modes in
  let t = Cost.empty_tally ~modes:m in
  for i = 0 to m - 1 do
    t.Cost.created.(i) <- key.(i)
  done;
  for i = 0 to m - 1 do
    let reused_from_i = ref 0 in
    for i' = 0 to m - 1 do
      t.Cost.reused.(i).(i') <- key.(m + (i * m) + i');
      reused_from_i := !reused_from_i + t.Cost.reused.(i).(i')
    done;
    t.Cost.deleted.(i) <- available.(i) - !reused_from_i
  done;
  t

let power_of_state ~modes ~power key =
  let m = Modes.count modes in
  let total = ref 0. in
  for op = 1 to m do
    let count = ref key.(op - 1) in
    for i0 = 1 to m do
      count := !count + key.(m + ((i0 - 1) * m) + (op - 1))
    done;
    if !count > 0 then
      total := !total +. (float_of_int !count *. Power.of_mode power modes op)
  done;
  !total

(* Packed twins of the two key readers, writing into a caller-owned
   tally so the lean solve scan reuses one scratch record. *)
let ptally_into lay ~available tally key =
  let m = Packed_key.mode_count lay in
  for op = 1 to m do
    tally.Cost.created.(op - 1) <-
      Packed_key.get lay key (Packed_key.n_field lay ~operating:op)
  done;
  for i0 = 1 to m do
    let row = tally.Cost.reused.(i0 - 1) in
    let sum = ref 0 in
    for op = 1 to m do
      let v =
        Packed_key.get lay key (Packed_key.e_field lay ~initial:i0 ~operating:op)
      in
      row.(op - 1) <- v;
      sum := !sum + v
    done;
    tally.Cost.deleted.(i0 - 1) <- available.(i0 - 1) - !sum
  done

let mode_powers ~modes ~power =
  Array.init (Modes.count modes) (fun i -> Power.of_mode power modes (i + 1))

(* [mode_power.(op - 1)] is one server's power at mode op: hoisted out
   of the root scan, which then boxes no float per cell. *)
let[@inline] ppower_of lay ~mode_power key =
  let m = Packed_key.mode_count lay in
  let total = ref 0. in
  for op = 1 to m do
    let count = ref (Packed_key.get lay key (Packed_key.n_field lay ~operating:op)) in
    for i0 = 1 to m do
      count :=
        !count
        + Packed_key.get lay key (Packed_key.e_field lay ~initial:i0 ~operating:op)
    done;
    if !count > 0 then
      total := !total +. (float_of_int !count *. mode_power.(op - 1))
  done;
  !total

(* Root decisions for one packed root-table cell, in the same order as
   the wide enumeration: zero flow admits the no-root completion (plus
   a zero-load reuse when the root is pre-existing); positive flow
   forces a root server at the load-determined mode. The root bump
   leaves the flow field untouched — like the wide [bump] — since the
   readers above only look at count fields. *)
let proot_scan lay ~modes table ~root_pre ~root_i0 consider =
  let len = Int_table.length table in
  for i = 0 to len - 1 do
    let key = Int_table.key_at table i in
    let placed = Int_table.val_at table i in
    let flow = Packed_key.flow lay key in
    if flow = 0 then begin
      consider key placed false;
      if root_pre then
        consider
          (Packed_key.bump lay key
             (Packed_key.e_field lay ~initial:root_i0 ~operating:1))
          placed true
    end
    else begin
      let operating = Modes.mode_of_load modes flow in
      let field =
        if root_pre then Packed_key.e_field lay ~initial:root_i0 ~operating
        else Packed_key.n_field lay ~operating
      in
      consider (Packed_key.bump lay key field) placed true
    end
  done

(* Enumerate every complete solution at the root (wide fallback): for
   each root-table cell, either the residual flow is zero (no root
   server needed — with an optional zero-load reuse when the root is
   pre-existing), or the root must host a server whose mode follows
   from the flow. One scratch key serves every transient root bump. *)
let candidates tree ~modes ~power ~cost ~prune ~domains =
  if Cost.mode_count cost <> Modes.count modes then
    invalid_arg "Dp_power: cost model mode count mismatch";
  let m = Modes.count modes in
  let root = Tree.root tree in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.tables";
  let arena = Arena.create () in
  let table =
    Stats_counters.time t_tables (fun () ->
        table_of arena tree ~modes ~prune ~domains root)
  in
  if tracing then
    Span.end_span ~args:[ ("root_cells", Span.Int (Tbl.length table)) ] ();
  let root_initial =
    if Tree.is_pre_existing tree root then
      Some (initial_mode_default tree root)
    else None
  in
  let available = available_of tree ~m in
  let scratch = Array.make (state_size m + 1) 0 in
  let out = ref [] in
  let emit key placed root_used =
    let tally = tally_of_state ~modes ~available key in
    let cost_v = Cost.modal_cost cost tally in
    let power_v = power_of_state ~modes ~power key in
    let nodes = Arena.nodes arena placed in
    let nodes = if root_used then root :: nodes else nodes in
    out :=
      {
        solution = Solution.of_nodes nodes;
        power = power_v;
        cost = cost_v;
        tally;
      }
      :: !out
  in
  if tracing then Span.begin_span "dp_power.enumerate";
  Stats_counters.time t_enumerate (fun () ->
      Tbl.iter
        (fun key placed ->
          let flow = flow_of key in
          if flow = 0 then begin
            emit key placed false;
            (* Zero-load reuse of a pre-existing root (can be cheaper than
               deleting it, at the price of its mode-1 power). *)
            match root_initial with
            | Some _ ->
                bump_into scratch key ~m ~initial:root_initial ~operating:1;
                emit scratch placed true
            | None -> ()
          end
          else begin
            let operating = Modes.mode_of_load modes flow in
            bump_into scratch key ~m ~initial:root_initial ~operating;
            emit scratch placed true
          end)
        table);
  if tracing then
    Span.end_span ~args:[ ("candidates", Span.Int (List.length !out)) ] ();
  !out

(* Packed candidate enumeration (frontier path: every completion is
   materialized as a [result]). *)
let pcandidates lay tree ~modes ~power ~cost ~prune ~domains =
  if Cost.mode_count cost <> Modes.count modes then
    invalid_arg "Dp_power: cost model mode count mismatch";
  let m = Modes.count modes in
  let root = Tree.root tree in
  let pc = make_pctx lay in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.tables";
  let table =
    Stats_counters.time t_tables (fun () ->
        ptable pc tree ~modes ~prune ~domains ~depth:0 root)
  in
  if tracing then
    Span.end_span ~args:[ ("root_cells", Span.Int (Int_table.length table)) ] ();
  let root_pre = Tree.is_pre_existing tree root in
  let root_i0 = if root_pre then initial_mode_default tree root else 0 in
  let available = available_of tree ~m in
  let mode_power = mode_powers ~modes ~power in
  let out = ref [] in
  let emit key placed root_used =
    let tally = Cost.empty_tally ~modes:m in
    ptally_into lay ~available tally key;
    let cost_v = Cost.modal_cost cost tally in
    let power_v = ppower_of lay ~mode_power key in
    let nodes = Arena.nodes pc.arena placed in
    let nodes = if root_used then root :: nodes else nodes in
    out :=
      {
        solution = Solution.of_nodes nodes;
        power = power_v;
        cost = cost_v;
        tally;
      }
      :: !out
  in
  if tracing then Span.begin_span "dp_power.enumerate";
  Stats_counters.time t_enumerate (fun () ->
      proot_scan lay ~modes table ~root_pre ~root_i0 emit);
  if tracing then
    Span.end_span ~args:[ ("candidates", Span.Int (List.length !out)) ] ();
  !out

(* Packed solve: build the root table with pooled scratch (or through
   the memo), then scan it WITHOUT materializing a candidate list —
   cost and power are evaluated into one scratch tally per cell, and
   only the winning cell is decoded into a [result]. The scan order
   and the non-strict replace reproduce the wide path's tie-breaking
   exactly: the (power, cost) optimum is identical; the representative
   placement may differ (table iteration orders differ). *)
let psolve lay tree ~modes ~power ~cost ~bound ~prune ~domains mopt =
  let pmemo =
    match mopt with
    | None -> None
    | Some mm ->
        Subtree_memo.prepare mm (Modes.capacities modes, prune, lay);
        Some (mm, Tree.subtree_fingerprints tree)
  in
  let pc = make_pctx ?pmemo lay in
  let tracing = Span.enabled () in
  let root = Tree.root tree in
  if tracing then Span.begin_span "dp_power.tables";
  let table =
    Stats_counters.time t_tables (fun () ->
        ptable pc tree ~modes ~prune ~domains ~depth:0 root)
  in
  if tracing then
    Span.end_span ~args:[ ("root_cells", Span.Int (Int_table.length table)) ] ();
  let m = Modes.count modes in
  let root_pre = Tree.is_pre_existing tree root in
  let root_i0 = if root_pre then initial_mode_default tree root else 0 in
  let available = available_of tree ~m in
  let mode_power = mode_powers ~modes ~power in
  let scratch = Cost.empty_tally ~modes:m in
  let n_cand = ref 0 in
  let found = ref false
  and best_p = ref infinity
  and best_c = ref infinity
  and best_key = ref 0
  and best_placed = ref Arena.empty
  and best_root = ref false in
  let consider key placed root_used =
    incr n_cand;
    ptally_into lay ~available scratch key;
    let cost_v = Cost.modal_cost cost scratch in
    if cost_v <= bound then begin
      let power_v = ppower_of lay ~mode_power key in
      if
        (not !found)
        || power_v < !best_p
        || (power_v = !best_p && cost_v <= !best_c)
      then begin
        found := true;
        best_p := power_v;
        best_c := cost_v;
        best_key := key;
        best_placed := placed;
        best_root := root_used
      end
    end
  in
  if tracing then Span.begin_span "dp_power.enumerate";
  Stats_counters.time t_enumerate (fun () ->
      proot_scan lay ~modes table ~root_pre ~root_i0 consider);
  if tracing then
    Span.end_span ~args:[ ("candidates", Span.Int !n_cand) ] ();
  let result =
    if not !found then None
    else begin
      let tally = Cost.empty_tally ~modes:m in
      ptally_into lay ~available tally !best_key;
      let nodes = Arena.nodes pc.arena !best_placed in
      let nodes = if !best_root then root :: nodes else nodes in
      Some
        {
          solution = Solution.of_nodes nodes;
          power = !best_p;
          cost = !best_c;
          tally;
        }
    end
  in
  (match mopt with
  | Some mm ->
      Subtree_memo.keep_slots mm pc.pslots;
      Subtree_memo.finish mm
  | None -> ());
  result

let wide_solve tree ~modes ~power ~cost ~bound ~prune ~domains =
  let best = ref None in
  List.iter
    (fun r ->
      if r.cost <= bound then
        match !best with
        | Some b when (b.power, b.cost) <= (r.power, r.cost) -> ()
        | Some _ | None -> best := Some r)
    (candidates tree ~modes ~power ~cost ~prune ~domains);
  !best

let solve tree ~modes ~power ~cost ?(bound = infinity) ?prune ?packed
    ?(domains = 1) ?memo:m () =
  if Cost.mode_count cost <> Modes.count modes then
    invalid_arg "Dp_power: cost model mode count mismatch";
  (* Pruning is exact for the pure MinPower problem regardless of the
     cost model, and for bounded problems under mode-monotone costs —
     see the proof above [prune_dominated]. *)
  let prune =
    match prune with
    | Some p -> p
    | None -> bound = infinity || Cost.is_mode_monotone cost
  in
  let layout =
    match packed with
    | Some false -> None
    | Some true -> (
        match layout_for tree ~modes with
        | Some _ as l -> l
        | None ->
            invalid_arg "Dp_power: instance exceeds the 62-bit packed key budget"
        )
    | None -> layout_for tree ~modes
  in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_power.solve";
  let result =
    match layout with
    | Some lay -> psolve lay tree ~modes ~power ~cost ~bound ~prune ~domains m
    | None -> wide_solve tree ~modes ~power ~cost ~bound ~prune ~domains
  in
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("prune", Span.Bool prune);
          ("domains", Span.Int domains);
          ("incremental", Span.Bool (m <> None));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let frontier ?prune ?(domains = 1) tree ~modes ~power ~cost =
  (* The frontier sweeps every cost bound at once, so pruning is only
     exact under mode-monotone costs. *)
  let prune =
    match prune with Some p -> p | None -> Cost.is_mode_monotone cost
  in
  let all =
    match layout_for tree ~modes with
    | Some lay -> pcandidates lay tree ~modes ~power ~cost ~prune ~domains
    | None -> candidates tree ~modes ~power ~cost ~prune ~domains
  in
  let all =
    List.sort (fun a b -> compare (a.cost, a.power) (b.cost, b.power)) all
  in
  (* Keep points that strictly improve power as cost increases. *)
  let rec filter best_power = function
    | [] -> []
    | r :: rest ->
        if r.power < best_power then r :: filter r.power rest
        else filter best_power rest
  in
  filter infinity all

let root_state_count ?(prune = false) ?(domains = 1) tree ~modes =
  match layout_for tree ~modes with
  | Some lay ->
      let pc = make_pctx lay in
      Int_table.length
        (ptable pc tree ~modes ~prune ~domains ~depth:0 (Tree.root tree))
  | None ->
      Tbl.length
        (table_of (Arena.create ()) tree ~modes ~prune ~domains (Tree.root tree))

(* Allocation probe: minor words allocated by rebuilding the whole
   packed table pyramid with warm scratch buffers — the quantity the
   bench gate pins to exactly zero. The first build grows every pool
   and the arena to steady-state capacity; the metered rebuild then
   runs entirely in preallocated storage. The no-op measurement
   cancels the constant metering overhead (float boxing in bytecode). *)
let merge_minor_words tree ~modes ~prune =
  match layout_for tree ~modes with
  | None ->
      invalid_arg "Dp_power.merge_minor_words: instance exceeds the packed key budget"
  | Some lay ->
      let root = Tree.root tree in
      let pc = make_pctx lay in
      ignore (ptable pc tree ~modes ~prune ~domains:1 ~depth:0 root);
      let rebuild () =
        Arena.clear pc.arena;
        ignore (ptable pc tree ~modes ~prune ~domains:1 ~depth:0 root)
      in
      let meter f =
        let a0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. a0
      in
      let baseline = meter (fun () -> ()) in
      (* one extra warm rebuild so every scratch pool has seen the
         final swap pattern before the metered run *)
      rebuild ();
      meter rebuild -. baseline
