(** The incremental memo of the exact DP solvers ({!Dp_withpre},
    {!Dp_power}): one cache policy, parameterised by the cached table
    type.

    A node's table after merging its children [c_1..c_i] into its start
    cell is a pure function of the node's client load and the subtrees
    of [c_1..c_i], so it is cached under the fingerprint chain
    {[ k_0 = combine(seed, load j),  k_i = combine(k_{i-1}, fp(c_i)) ]}
    where [fp] is {!Tree.subtree_fingerprints} and [seed] is the
    solver's own constant. A later solve resumes each node's fold from
    its longest cached prefix and recomputes only the remaining
    merges. A second table, used only by solvers that cache a child's
    extended table, keys it by [(child, fp child)].

    The memo owns its storage:
    - {b eviction}: an entry unread for two consecutive solves is
      evicted by {!finish};
    - {b recycled tables}: an evicted table goes onto a free list by
      capacity class (class [k] holds tables of exactly [2^k] cells),
      and {!take} draws from it before allocating. A class's free list
      never holds more tables than the memo caches in that class;
    - {b compaction}: cached placements are handles into the memo's
      {!arena}; once it outgrows its threshold, {!finish} compacts it
      through the domain's reusable compactor, rewriting every cached
      handle with the caller's [relocate];
    - {b scratch}: the solver's per-depth scratch slots are kept from
      one solve to the next ({!slots}/{!keep_slots});
    - {b reset}: when the reset key passed to {!prepare} changes, both
      tables, the free lists and the arena cells are dropped.

    Cached tables are never mutated by the memo except through
    [relocate] during compaction, so sharing them across solves is
    safe. A memo is not domain-safe. *)

type ('key, 'tbl, 'slot) t

val create :
  seed:int64 ->
  fresh:(int -> 'tbl) ->
  cells:('tbl -> int) ->
  relocate:((int -> int) -> 'tbl -> unit) ->
  recycled:Stats_counters.counter ->
  compactions:Stats_counters.counter ->
  ('key, 'tbl, 'slot) t
(** [fresh k] allocates a table of exactly [2^k] cells, which [cells]
    reports back; [relocate f t] replaces every live handle [h] of [t]
    by [f h]. [recycled] counts the draws {!take} serves from a free
    list, [compactions] the arena compactions. *)

val size : ('key, 'tbl, 'slot) t -> int
(** Entries currently cached in both tables. *)

val prepare : ('key, 'tbl, 'slot) t -> 'key -> unit
(** Start a solve: reset the memo if [key] differs (structurally) from
    the previous solve's, then advance the generation. *)

val finish : ('key, 'tbl, 'slot) t -> unit
(** End a solve: evict the entries unread in this solve and the one
    before it, then compact the arena if it outgrew its threshold. *)

val arena : ('key, 'tbl, 'slot) t -> Arena.t
(** The arena holding every cached placement. *)

val slots : ('key, 'tbl, 'slot) t -> 'slot array
(** The per-depth scratch kept from the previous solve ([[||]] at
    first and after nothing was kept). *)

val keep_slots : ('key, 'tbl, 'slot) t -> 'slot array -> unit

val take : ('key, 'tbl, 'slot) t -> int -> 'tbl
(** [take m n]: a table with room for at least [n] cells, to be cached:
    recycled when its class's free list has one, else fresh. The caller
    resets its contents. *)

val resume :
  ('key, 'tbl, 'slot) t ->
  fps:int64 array ->
  client:int ->
  traced:bool ->
  start:'tbl ->
  int ->
  int array ->
  int64 array * int * 'tbl
(** [resume m ~fps ~client ~traced ~start j children]: node [j]'s chain
    keys [k_0..k_k], the length of its longest cached prefix and that
    prefix's table ([start] when none is cached). The hit entry is
    stamped as read. With [traced], the outcome ([hit], [partial] or
    [miss]) is tagged on the current span as ["memo"]. *)

val add_prefix : ('key, 'tbl, 'slot) t -> int -> int64 array -> int -> 'tbl -> unit
(** [add_prefix m j keys i t] caches [t] as node [j]'s fold after its
    first [i] children ([keys] from {!resume}). *)

val find_ext : ('key, 'tbl, 'slot) t -> int -> int64 -> 'tbl option
(** [find_ext m c fp]: child [c]'s cached extension under fingerprint
    [fp], stamped as read. *)

val add_ext : ('key, 'tbl, 'slot) t -> int -> int64 -> 'tbl -> unit
