let src =
  Logs.Src.create "replica.dp_withpre" ~doc:"MinCost-WithPre dynamic program"

module Log = (val Logs.src_log src : Logs.LOG)

let c_cells = Stats_counters.counter "dp_withpre.cells_created"
let c_products = Stats_counters.counter "dp_withpre.merge_products"
let c_capacity = Stats_counters.counter "dp_withpre.capacity_rejected"
let c_peak = Stats_counters.counter "dp_withpre.peak_table_size"
let t_tables = Stats_counters.timer "dp_withpre.tables"
let c_memo_hits = Stats_counters.counter "dp_withpre.memo_hits"
let c_memo_partial = Stats_counters.counter "dp_withpre.memo_partial"
let c_memo_misses = Stats_counters.counter "dp_withpre.memo_misses"
let c_memo_compactions = Stats_counters.counter "dp_withpre.memo_compactions"
let c_memo_recycled = Stats_counters.counter "dp_withpre.memo_recycled"

(* Structured observability: per-node solve and child-merge spans (with
   memo hit/partial/miss tags) plus a log2 histogram of per-node merge
   products. Span sites are guarded by [Span.enabled] — the disabled
   path is one atomic load, no allocation. *)
module Span = Replica_obs.Span

let h_products =
  Replica_obs.Histogram.create "dp_withpre.merge_products_per_node"

(* Flat-table representation. A table indexed by (e, n) — reused
   pre-existing and new servers strictly below the node — is two flat
   int arrays over the dense (pre_cap+1) x (new_cap+1) grid: the flow
   of the representative cell ([-1] = absent) and its placement as an
   {!Arena} handle. Compared with the former
   [cell option array array] of boxed records, a cell probe is one
   load, an insert is two stores, and the merge convolution below
   allocates zero GC words: placements are arena pushes, cells are
   int writes.

   The dimensions are logical: [flows]/[placed] may be longer than the
   active grid, which is what lets the per-depth scratch pool reuse
   one backing array across every sibling merge at that depth. *)
type table = {
  mutable pre_cap : int; (* max reused pre-existing representable *)
  mutable new_cap : int; (* max new servers representable *)
  mutable flows : int array; (* stride new_cap + 1; -1 = absent *)
  mutable placed : int array; (* arena handles, valid where flows >= 0 *)
}

type result = {
  solution : Solution.t;
  cost : float;
  servers : int;
  reused : int;
}

let fresh_table pre_cap new_cap =
  let cells = (pre_cap + 1) * (new_cap + 1) in
  {
    pre_cap;
    new_cap;
    flows = Array.make cells (-1);
    placed = Array.make cells 0;
  }

(* Re-dimension a pooled table, keeping (and only touching the active
   prefix of) its backing storage. *)
let reset_table t pre_cap new_cap =
  let cells = (pre_cap + 1) * (new_cap + 1) in
  if Array.length t.flows < cells then begin
    let cap = max cells (2 * Array.length t.flows) in
    t.flows <- Array.make cap (-1);
    t.placed <- Array.make cap 0
  end
  else Array.fill t.flows 0 cells (-1);
  t.pre_cap <- pre_cap;
  t.new_cap <- new_cap

let[@inline] set t e n ~flow ~placed =
  let i = (e * (t.new_cap + 1)) + n in
  let cur = t.flows.(i) in
  if cur < 0 then begin
    t.flows.(i) <- flow;
    t.placed.(i) <- placed;
    Stats_counters.incr c_cells
  end
  else if flow < cur then begin
    t.flows.(i) <- flow;
    t.placed.(i) <- placed
  end

let iter_cells t f =
  for e = 0 to t.pre_cap do
    let base = e * (t.new_cap + 1) in
    for n = 0 to t.new_cap do
      let flow = t.flows.(base + n) in
      if flow >= 0 then f e n flow t.placed.(base + n)
    done
  done

(* Per-depth scratch buffers. The memo-less fold at node j (depth d)
   only ever needs three live tables at depth d — the accumulator, the
   merge target, and the current child's extension — while the child's
   own table lives one depth down; so a slot of three pooled tables per
   depth makes the whole solve reuse O(height) buffers instead of
   allocating O(N) tables. The memo path uses the same slots for its
   transient tables (a node's start cell, a child's extension) and
   keeps them from one solve to the next; only cached merges outlive a
   solve, and those come from the memo's recycled storage instead. *)
type slot = { mutable s_acc : table; mutable s_alt : table; s_ext : table }

let fresh_slot () =
  { s_acc = fresh_table 0 0; s_alt = fresh_table 0 0; s_ext = fresh_table 0 0 }

(* Incremental re-solving goes through {!Subtree_memo}: every prefix
   of every node's child-merge fold is cached under its fingerprint
   chain, and the memo recycles evicted tables into the cached merges
   and compacts its arena. Tables depend on [w], the memo's reset key. *)
type memo = (int, table, slot) Subtree_memo.t

let memo () =
  Subtree_memo.create ~seed:0x2545F4914F6CDD1DL
    ~fresh:(fun k -> fresh_table 0 ((1 lsl k) - 1))
    ~cells:(fun t -> Array.length t.flows)
    ~relocate:(fun f t ->
      for i = 0 to ((t.pre_cap + 1) * (t.new_cap + 1)) - 1 do
        if t.flows.(i) >= 0 then t.placed.(i) <- f t.placed.(i)
      done)
    ~recycled:c_memo_recycled ~compactions:c_memo_compactions

let memo_size = Subtree_memo.size

type ctx = {
  arena : Arena.t;
  mutable slots : slot array; (* indexed by depth; grown on demand *)
  memo : (memo * int64 array) option;
}

let slot ctx depth =
  let n = Array.length ctx.slots in
  if depth >= n then begin
    let slots = Array.init (max (depth + 1) (2 * n)) (fun i ->
        if i < n then ctx.slots.(i) else fresh_slot ())
    in
    ctx.slots <- slots
  end;
  ctx.slots.(depth)

(* The child's table extended with the decision at c itself, written
   into [into] (already reset to the extended dimensions): every cell
   passes up unchanged, and absorbing the flow at c moves the cell one
   server up with flow 0. *)
let extend ctx tree ~into sub c =
  let c_pre = Tree.is_pre_existing tree c in
  iter_cells sub (fun e n flow placed ->
      set into e n ~flow ~placed;
      let de = if c_pre then 1 else 0 in
      let i = ((e + de) * (into.new_cap + 1)) + (n + 1 - de) in
      let cur = into.flows.(i) in
      if cur <> 0 then begin
        (* absorbed cells have flow 0: only an absent or positive-flow
           occupant can lose to one (ties keep the incumbent) *)
        let absorbed = Arena.snoc ctx.arena placed ~node:c ~flow in
        if cur < 0 then begin
          into.flows.(i) <- 0;
          into.placed.(i) <- absorbed;
          Stats_counters.incr c_cells
        end
        else begin
          into.flows.(i) <- 0;
          into.placed.(i) <- absorbed
        end
      end)

(* The convolution kernel: merge [left] and [ext] into [into] (already
   reset to the combined dimensions). Straight nested loops over the
   flat arrays; the only data written are int cells and arena pushes —
   no GC allocation. *)
let convolve ctx ~w ~into left ext =
  let arena = ctx.arena in
  let products = ref 0 and rejected = ref 0 and live = ref 0 in
  let lw = left.new_cap + 1
  and rw = ext.new_cap + 1
  and ow = into.new_cap + 1 in
  for e1 = 0 to left.pre_cap do
    for n1 = 0 to left.new_cap do
      let li = (e1 * lw) + n1 in
      let lf = left.flows.(li) in
      if lf >= 0 then begin
        let lp = left.placed.(li) in
        let obase = (e1 * ow) + n1 in
        for e2 = 0 to ext.pre_cap do
          for n2 = 0 to ext.new_cap do
            let ri = (e2 * rw) + n2 in
            let rf = ext.flows.(ri) in
            if rf >= 0 then begin
              incr products;
              let flow = lf + rf in
              if flow <= w then begin
                let oi = obase + (e2 * ow) + n2 in
                let cur = into.flows.(oi) in
                if cur < 0 then begin
                  into.flows.(oi) <- flow;
                  into.placed.(oi) <- Arena.append arena lp ext.placed.(ri);
                  incr live
                end
                else if flow < cur then begin
                  into.flows.(oi) <- flow;
                  into.placed.(oi) <- Arena.append arena lp ext.placed.(ri)
                end
              end
              else incr rejected
            end
          done
        done
      end
    done
  done;
  Stats_counters.add c_cells !live;
  Stats_counters.add c_products !products;
  Stats_counters.add c_capacity !rejected;
  Replica_obs.Histogram.observe h_products !products;
  Stats_counters.record_max c_peak !live

(* The message closure is only built when the source logs at debug
   level, so the merge paths allocate nothing for it otherwise. *)
let log_merge c left ext =
  if Logs.Src.level src = Some Logs.Debug then
    Log.debug (fun m ->
        m "merge child %d: left %dx%d, child %dx%d" c (left.pre_cap + 1)
          (left.new_cap + 1) (ext.pre_cap + 1) (ext.new_cap + 1))

(* Per-node spans only for subtrees of at least this many nodes. The
   flat tables made small-subtree merges so cheap that a span per node
   (two clock reads, two GC probes, an args list) dominated them — the
   obs bench's tracing-overhead budget is what pins this down. Large
   subtrees, where profiles carry signal, are still covered. *)
let span_min_subtree = 16

let traced tree j =
  Span.enabled () && Tree.subtree_size tree j >= span_min_subtree

(* Table of node j over servers strictly below j. [ctx.memo] carries
   the optional memo and the current tree's subtree fingerprints. *)
let rec table_of ctx tree ~w ~depth j =
  if not (traced tree j) then node_table ctx tree ~w ~depth j
  else begin
    Span.begin_span "dp_withpre.node";
    let tbl =
      try node_table ctx tree ~w ~depth j
      with e ->
        Span.end_span ();
        raise e
    in
    Span.end_span
      ~args:
        [
          ("node", Span.Int j);
          ("subtree_size", Span.Int (Tree.subtree_size tree j));
        ]
      ();
    tbl
  end

and node_table ctx tree ~w ~depth j =
  let client = Tree.client_load tree j in
  (* The start cell: node j's own clients, nothing placed below it. *)
  let s = slot ctx depth in
  reset_table s.s_acc 0 0;
  if client <= w then begin
    s.s_acc.flows.(0) <- client;
    s.s_acc.placed.(0) <- Arena.empty
  end;
  match ctx.memo with
  | None ->
      let children = Tree.children_array tree j in
      for i = 0 to Array.length children - 1 do
        merge_into ctx tree ~w ~depth s children.(i)
      done;
      s.s_acc
  | Some (m, fps) ->
      let arr = Tree.children_array tree j in
      let k = Array.length arr in
      if k = 0 then s.s_acc
      else begin
        let keys, best, table =
          Subtree_memo.resume m ~fps ~client ~traced:(traced tree j)
            ~start:s.s_acc j arr
        in
        let acc = ref table in
        if best = k then Stats_counters.incr c_memo_hits
        else begin
          Stats_counters.incr (if best > 0 then c_memo_partial else c_memo_misses);
          for i = best + 1 to k do
            acc := merge_cached ctx m tree ~w ~depth !acc arr.(i - 1);
            Subtree_memo.add_prefix m j keys i !acc
          done
        end;
        !acc
      end

(* Memo-less merge: child table and extension live in scratch slots,
   the merged accumulator double-buffers between s_acc and s_alt. *)
and merge_into ctx tree ~w ~depth s c =
  let sub = table_of ctx tree ~w ~depth:(depth + 1) c in
  let c_pre = Tree.is_pre_existing tree c in
  let de = if c_pre then 1 else 0 in
  reset_table s.s_ext (sub.pre_cap + de) (sub.new_cap + 1 - de);
  extend ctx tree ~into:s.s_ext sub c;
  let left = s.s_acc and ext = s.s_ext in
  log_merge c left ext;
  let tracing = traced tree c in
  if tracing then Span.begin_span "dp_withpre.merge";
  reset_table s.s_alt (left.pre_cap + ext.pre_cap) (left.new_cap + ext.new_cap);
  convolve ctx ~w ~into:s.s_alt left ext;
  if tracing then
    Span.end_span
      ~args:
        [
          ("child", Span.Int c);
          ("merged_pre_cap", Span.Int s.s_alt.pre_cap);
          ("merged_new_cap", Span.Int s.s_alt.new_cap);
        ]
      ();
  let acc = s.s_alt in
  s.s_alt <- s.s_acc;
  s.s_acc <- acc

(* Memo merge: the result is cached across solves, so it is drawn from
   the memo's table storage; the transient extension lives in the depth
   slot's [s_ext], which nothing else touches until this merge ends. *)
and merge_cached ctx m tree ~w ~depth left c =
  let sub = table_of ctx tree ~w ~depth:(depth + 1) c in
  let c_pre = Tree.is_pre_existing tree c in
  let de = if c_pre then 1 else 0 in
  let ext = (slot ctx depth).s_ext in
  reset_table ext (sub.pre_cap + de) (sub.new_cap + 1 - de);
  extend ctx tree ~into:ext sub c;
  log_merge c left ext;
  let tracing = traced tree c in
  if tracing then Span.begin_span "dp_withpre.merge";
  let pre_cap = left.pre_cap + ext.pre_cap
  and new_cap = left.new_cap + ext.new_cap in
  let merged = Subtree_memo.take m ((pre_cap + 1) * (new_cap + 1)) in
  reset_table merged pre_cap new_cap;
  convolve ctx ~w ~into:merged left ext;
  if tracing then
    Span.end_span
      ~args:
        [
          ("child", Span.Int c);
          ("merged_pre_cap", Span.Int merged.pre_cap);
          ("merged_new_cap", Span.Int merged.new_cap);
        ]
      ();
  merged

(* Algorithm 4: the cheapest root cell under Eq. 2. Plain loops over
   the flat table and an inlined [consider], so scanning allocates only
   the one [best] record (plus a boxed cost per improvement). Ties keep
   the earlier candidate. *)
type best = {
  mutable found : bool;
  mutable value : float;
  mutable b_servers : int;
  mutable b_reused : int;
  mutable b_placed : int;
  mutable root_used : bool;
}

let[@inline] consider b value ~servers ~reused ~placed ~root_used =
  if (not b.found) || value < b.value then begin
    b.found <- true;
    b.value <- value;
    b.b_servers <- servers;
    b.b_reused <- reused;
    b.b_placed <- placed;
    b.root_used <- root_used
  end

let scan_root tree table ~cost =
  let pre_total = Tree.num_pre_existing tree in
  let root_pre = Tree.is_pre_existing tree (Tree.root tree) in
  let b =
    {
      found = false;
      value = 0.;
      b_servers = 0;
      b_reused = 0;
      b_placed = Arena.empty;
      root_used = false;
    }
  in
  for e = 0 to table.pre_cap do
    let base = e * (table.new_cap + 1) in
    for n = 0 to table.new_cap do
      let flow = table.flows.(base + n) in
      if flow >= 0 then begin
        let placed = table.placed.(base + n) in
        if flow = 0 then begin
          (* Solution without a root server … *)
          consider b
            (Cost.basic_cost cost ~servers:(e + n) ~reused:e
               ~pre_existing:pre_total)
            ~servers:(e + n) ~reused:e ~placed ~root_used:false;
          (* … and, when the root is pre-existing, reusing it at zero
             load (cheaper than deleting it when delete > 1). *)
          if root_pre then
            consider b
              (Cost.basic_cost cost ~servers:(e + n + 1) ~reused:(e + 1)
                 ~pre_existing:pre_total)
              ~servers:(e + n + 1) ~reused:(e + 1) ~placed ~root_used:true
        end
        else begin
          (* flow <= w by construction: the root must host a server. *)
          let reused = e + if root_pre then 1 else 0 in
          consider b
            (Cost.basic_cost cost ~servers:(e + n + 1) ~reused
               ~pre_existing:pre_total)
            ~servers:(e + n + 1) ~reused ~placed ~root_used:true
        end
      end
    done
  done;
  b

let solve ?memo:m tree ~w ~cost =
  if w <= 0 then invalid_arg "Dp_withpre: w must be positive";
  let ctx =
    match m with
    | None -> { arena = Arena.create (); slots = [||]; memo = None }
    | Some mm ->
        Subtree_memo.prepare mm w;
        {
          arena = Subtree_memo.arena mm;
          slots = Subtree_memo.slots mm;
          memo = Some (mm, Tree.subtree_fingerprints tree);
        }
  in
  let root = Tree.root tree in
  let tracing = Span.enabled () in
  if tracing then Span.begin_span "dp_withpre.solve";
  let table =
    Stats_counters.time t_tables (fun () -> table_of ctx tree ~w ~depth:0 root)
  in
  let best = scan_root tree table ~cost in
  let result =
    if not best.found then None
    else
      let nodes = Arena.nodes ctx.arena best.b_placed in
      let nodes = if best.root_used then root :: nodes else nodes in
      Some
        {
          solution = Solution.of_nodes nodes;
          cost = best.value;
          servers = best.b_servers;
          reused = best.b_reused;
        }
  in
  (match m with
  | Some mm ->
      Subtree_memo.keep_slots mm ctx.slots;
      Subtree_memo.finish mm
  | None -> ());
  if tracing then
    Span.end_span
      ~args:
        [
          ("nodes", Span.Int (Tree.size tree));
          ("w", Span.Int w);
          ("incremental", Span.Bool (m <> None));
          ("solved", Span.Bool (result <> None));
        ]
      ();
  result

let root_table tree ~w =
  if w <= 0 then invalid_arg "Dp_withpre: w must be positive";
  let ctx = { arena = Arena.create (); slots = [||]; memo = None } in
  let table = table_of ctx tree ~w ~depth:0 (Tree.root tree) in
  Array.init (table.pre_cap + 1) (fun e ->
      Array.init (table.new_cap + 1) (fun n ->
          let flow = table.flows.((e * (table.new_cap + 1)) + n) in
          if flow < 0 then None else Some flow))
