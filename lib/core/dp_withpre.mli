(** Dynamic program for [MinCost-WithPre] (§3, Theorem 1).

    The paper's main update-strategy algorithm: for every node [j], a
    table indexed by the exact number [e] of reused pre-existing servers
    and [n] of newly created servers in the subtree below [j] (excluding
    [j]) stores the minimal number of requests that must traverse [j]
    together with a placement realizing it. Lemma 1 shows an optimal
    global solution can be assembled from these flow-minimal local ones.
    Children are merged one by one (Algorithm 3); the root table is then
    scanned with the cost function Eq. 2 to pick the cheapest feasible
    pair (Algorithm 4).

    Two deliberate deviations from the paper's pseudo-code, both
    documented in DESIGN.md:
    - placements are carried as O(1)-append {!Arena} lists instead of
      per-cell O(N) request vectors, realizing the §3.3 "copy outside the
      loop" optimization functionally and bounding every node's pair of
      dimensions by its own subtree content, which is what makes the
      worst-case O(N^5) bound loose in practice;
    - when the root flow is zero and the root is itself a pre-existing
      server, we additionally consider {e reusing it at zero load}, which
      beats deleting it whenever [delete > 1]; Algorithm 4 omits that
      branch.

    {2 Incremental re-solving}

    The online reconfiguration engine ({!Replica_engine.Engine}) calls
    this solver once per epoch on trees that differ only where demand
    moved. Passing a {!memo} makes those re-solves incremental: every
    prefix of every node's child-merge fold is cached, keyed by a chain
    of subtree fingerprints ({!Tree.subtree_fingerprints}), so a solve
    after a demand shift recomputes only the tables of the changed
    subtrees and the suffixes of the merge folds along their root
    paths — everything else is reused. Results are {e identical} to a
    memo-less solve (cached tables are exact, not approximate; the only
    caveat is the ~2^-64 fingerprint-collision probability). Cache
    effectiveness is observable through the
    [dp_withpre.memo_{hits,partial,misses}] counters. A memo must only
    be reused across trees sharing one node-id space (epoch views
    derived by {!Tree.with_clients} / {!Tree.with_pre_existing}).

    The memo is a {!Subtree_memo}, which owns the cache policy and
    recycles the memo's storage, so a warm incremental solve hands the
    GC little beyond its answer:
    - {b eviction}: an entry unused for two consecutive solves is
      evicted at the end of a solve;
    - {b recycled tables}: an evicted table goes onto a free list by
      capacity class (power-of-two cell counts), and cached merges draw
      their tables from it before allocating
      ([dp_withpre.memo_recycled] counts the draws). A class's free
      list never outgrows the memo's live tables of that class;
    - {b transient tables} (a node's start cell, a child's extension)
      live in per-depth scratch slots kept from solve to solve;
    - {b compaction}: cached placements live in the memo's own
      {!Arena}; once it outgrows its threshold, the dead cells are
      dropped through the domain's reusable compactor
      ({!Arena.compact_begin}), whose buffers survive from one
      compaction to the next ([dp_withpre.memo_compactions] counts
      them);
    - {b reset}: when [w] changes, the memo drops its tables, its free
      lists and its arena cells. *)

type result = {
  solution : Solution.t;
  cost : float;  (** Eq. 2 value of [solution] *)
  servers : int;  (** [R] *)
  reused : int;  (** [e = |R ∩ E|] *)
}

type memo
(** A reusable cache of per-node merge-fold prefixes (see above). *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val memo_size : memo -> int
(** Number of cached tables currently held (observability). *)

val solve : ?memo:memo -> Tree.t -> w:int -> cost:Cost.basic -> result option
(** Optimal-cost placement, or [None] when the instance is infeasible.
    With [?memo], an incremental re-solve that reuses every table whose
    subtree is unchanged since the previous solves — bit-identical
    results either way.
    @raise Invalid_argument if [w <= 0]. *)

val root_table : Tree.t -> w:int -> int option array array
(** Diagnostic view: the root's [minr] table, entry [(e, n)] being the
    minimal number of requests traversing the root with exactly [e]
    reused and [n] new servers strictly below it. *)
