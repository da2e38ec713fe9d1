(* The incremental memo shared by Dp_withpre and Dp_power (see the
   .mli): fingerprint-chain prefix cache, extension cache, eviction into
   capacity-class free lists, and threshold compaction of the arena. *)

type 'tbl entry = { mutable stamp : int; table : 'tbl }

type ('key, 'tbl, 'slot) t = {
  seed : int64;
  mutable gen : int;
  mutable reset_key : 'key option; (* cached tables depend on it *)
  prefixes : (int * int64, 'tbl entry) Hashtbl.t;
  ext_cache : (int * int64, 'tbl entry) Hashtbl.t;
  arena : Arena.t;
  mutable compact_at : int;
  relocate : (int -> int) -> 'tbl -> unit;
  compactions : Stats_counters.counter;
  mutable slots : 'slot array;
  (* Free lists of table storage by capacity class. *)
  none : 'tbl; (* class 0: fills vacated free-list slots *)
  fresh : int -> 'tbl; (* new storage of class k *)
  cells : 'tbl -> int; (* a table's storage size, a power of two *)
  recycled : Stats_counters.counter;
  free : 'tbl array array; (* per class, a stack of tables *)
  free_len : int array; (* live prefix of each [free] stack *)
  cached : int array; (* per class, tables held by the memo *)
}

let min_compact_at = 1 lsl 16

let create ~seed ~fresh ~cells ~relocate ~recycled ~compactions =
  {
    seed;
    gen = 0;
    reset_key = None;
    prefixes = Hashtbl.create 512;
    ext_cache = Hashtbl.create 512;
    arena = Arena.create ();
    compact_at = min_compact_at;
    relocate;
    compactions;
    slots = [||];
    none = fresh 0;
    fresh;
    cells;
    recycled;
    free = Array.make Sys.int_size [||];
    free_len = Array.make Sys.int_size 0;
    cached = Array.make Sys.int_size 0;
  }

let size m = Hashtbl.length m.prefixes + Hashtbl.length m.ext_cache
let arena m = m.arena
let slots m = m.slots
let keep_slots m s = m.slots <- s

(* Smallest k with 2^k >= cells. *)
let size_class cells =
  let k = ref 0 in
  while 1 lsl !k < cells do
    incr k
  done;
  !k

let take m cells =
  let k = size_class cells in
  m.cached.(k) <- m.cached.(k) + 1;
  let n = m.free_len.(k) in
  if n = 0 then m.fresh k
  else begin
    m.free_len.(k) <- n - 1;
    let t = m.free.(k).(n - 1) in
    m.free.(k).(n - 1) <- m.none;
    Stats_counters.incr m.recycled;
    t
  end

(* Return an evicted table to its class, dropped when the free list is
   already as long as the class's cached count. *)
let recycle m t =
  let k = size_class (m.cells t) in
  m.cached.(k) <- m.cached.(k) - 1;
  let n = m.free_len.(k) in
  if n < m.cached.(k) then begin
    if n = Array.length m.free.(k) then begin
      let grown = Array.make (max 8 (2 * n)) m.none in
      Array.blit m.free.(k) 0 grown 0 n;
      m.free.(k) <- grown
    end;
    m.free.(k).(n) <- t;
    m.free_len.(k) <- n + 1
  end

let prepare m key =
  if m.reset_key <> Some key then begin
    Hashtbl.reset m.prefixes;
    Hashtbl.reset m.ext_cache;
    Arena.clear m.arena;
    Array.fill m.free 0 Sys.int_size [||];
    Array.fill m.free_len 0 Sys.int_size 0;
    Array.fill m.cached 0 Sys.int_size 0;
    m.reset_key <- Some key
  end;
  m.gen <- m.gen + 1

let resume m ~fps ~client ~traced ~start j children =
  let k = Array.length children in
  let keys =
    Array.make (k + 1) (Tree.combine_fingerprints m.seed (Int64.of_int client))
  in
  for i = 1 to k do
    keys.(i) <- Tree.combine_fingerprints keys.(i - 1) fps.(children.(i - 1))
  done;
  let best = ref k and table = ref start and found = ref false in
  while !best > 0 && not !found do
    match Hashtbl.find_opt m.prefixes (j, keys.(!best)) with
    | Some e ->
        e.stamp <- m.gen;
        table := e.table;
        found := true
    | None -> decr best
  done;
  (* only on this node's own span, never an enclosing one *)
  if traced then
    Replica_obs.Span.add_arg "memo"
      (Replica_obs.Span.Str
         (if !best = k then "hit" else if !best > 0 then "partial" else "miss"));
  (keys, !best, !table)

let add_prefix m j keys i table =
  Hashtbl.replace m.prefixes (j, keys.(i)) { stamp = m.gen; table }

let find_ext m c fp =
  match Hashtbl.find_opt m.ext_cache (c, fp) with
  | Some e ->
      e.stamp <- m.gen;
      Some e.table
  | None -> None

let add_ext m c fp table = Hashtbl.replace m.ext_cache (c, fp) { stamp = m.gen; table }

let evict m tbl =
  Hashtbl.filter_map_inplace
    (fun _ e ->
      if m.gen - e.stamp <= 1 then Some e
      else begin
        recycle m e.table;
        None
      end)
    tbl

(* Reclaim arena cells orphaned by eviction and replacement once the
   arena has outgrown its threshold: every surviving handle is rewritten
   through one sharing-preserving compaction. *)
let compact m =
  if Arena.length m.arena > m.compact_at then begin
    let c = Arena.compact_begin m.arena in
    let root h = Arena.compact_root m.arena c h in
    let rewrite _ e = m.relocate root e.table in
    Hashtbl.iter rewrite m.prefixes;
    Hashtbl.iter rewrite m.ext_cache;
    Arena.compact_commit m.arena c;
    Stats_counters.incr m.compactions;
    m.compact_at <- max min_compact_at (4 * Arena.length m.arena)
  end

let finish m =
  evict m m.prefixes;
  evict m m.ext_cache;
  compact m
