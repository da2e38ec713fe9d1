(** Recycled table storage for the incremental memos, by capacity
    class: class [k] holds tables whose backing storage spans exactly
    [2^k] cells. Evicted tables go onto their class's free list and
    cached tables are drawn from it before fresh storage is allocated.
    A class's free list never holds more tables than the memo caches
    in that class, so the pool stays bounded by the cache it serves. *)

type 'a t

val create :
  fresh:(int -> 'a) -> cells:('a -> int) -> recycled:Stats_counters.counter -> 'a t
(** [fresh k] allocates new storage of exactly [2^k] cells, which
    [cells] reports back; [recycled] counts the draws served from a
    free list. *)

val take : 'a t -> int -> 'a
(** [take p n]: a table with room for at least [n] cells, for the
    memo to cache: recycled when its class's free list has one, else
    fresh. The caller resets its contents. *)

val recycle : 'a t -> 'a -> unit
(** Return an evicted table (dropped when its class's free list is
    already as long as the class's cached count). *)

val clear : 'a t -> unit
(** Forget every free table and cached count (a memo reset). *)
