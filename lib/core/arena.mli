(** Flat arena for catenable placement lists, the placement
    representation of every DP solver.

    A placement is an [int] handle into the arena; [empty] ([= 0]) is
    the shared empty list. {!snoc} and {!append} are O(1) pushes into
    preallocated parallel int arrays, so a DP merge inner loop working
    over a pre-grown arena allocates zero GC words; structure is shared
    (a handle may appear under any number of later cells).

    Arenas are single-writer. The parallel sibling fan-out gives each
    domain a private arena and moves results back with {!graft};
    long-lived arenas (incremental memos) reclaim dead cells with the
    {!compact_begin}/{!compact_root}/{!compact_commit} protocol. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh arena (default initial capacity 1024 cells). *)

val empty : int
(** The empty placement ([0]), valid in every arena. *)

val length : t -> int
(** Number of cells in use (including the reserved empty cell). *)

val clear : t -> unit
(** Forget every cell (previously returned handles become invalid);
    keeps the backing storage, so refilling allocates nothing. *)

val leaf : t -> node:int -> flow:int -> int
(** Single-element placement [(node, flow)]. *)

val snoc : t -> int -> node:int -> flow:int -> int
(** [snoc t l ~node ~flow] appends one element to [l]. O(1). *)

val append : t -> int -> int -> int
(** Concatenate two placements. O(1); shares both arguments. *)

val iter : t -> (int -> int -> unit) -> int -> unit
(** [iter t f l] applies [f node flow] to each element of [l] in
    left-to-right order. Allocation-free (beyond a transient stack). *)

val nodes : t -> int -> int list
(** Element nodes of a placement, in order. *)

val to_list : t -> int -> (int * int) list
(** All [(node, flow)] elements of a placement, in order. *)

val count : t -> int -> int
(** Number of elements in a placement. O(length). *)

val graft : src:t -> dst:t -> int -> int
(** [graft ~src ~dst l] moves the cells of [l] from [src] into [dst]
    and returns the new handle. Moved cells are left as forwarding
    records, so repeated grafts out of one [src] preserve sharing
    across placements (a shared cell is moved once), but [src] may
    afterwards only be passed to further grafts, never read.
    Allocation-free apart from growing [dst] (the traversal stack is
    the calling domain's, reused). *)

(** {1 Compaction}

    Each domain owns one compactor: a traversal stack and a target
    arena, both reused from one compaction to the next. Live cells are
    grafted into the target and copied back; sharing is kept through
    forwarding records left in the compacted arena itself, so no side
    map is needed. A steady-state compaction therefore allocates
    nothing; storage grows only when more cells are live than in any
    compaction before on that domain. One compaction per domain may be
    in progress at a time (begin, roots, commit — no interleaving), and
    the arena must not be read between {!compact_begin} and
    {!compact_commit}. *)

type compaction

val compact_begin : t -> compaction
(** Start compacting [t] with the calling domain's compactor (its
    target is emptied). *)

val compact_root : t -> compaction -> int -> int
(** Copy one live placement into the target, returning its new handle.
    Call once per stored handle and store the result; sharing between
    roots is preserved. *)

val compact_commit : t -> compaction -> unit
(** Copy the compacted cells back into [t]'s own storage (which keeps
    its capacity). Handles not passed through {!compact_root} are dead
    after this. *)
