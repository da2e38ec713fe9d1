(* Flat arena for catenable placement lists, the placement
   representation of every DP solver. A placement is an [int]
   index into the arena; cell 0 is the shared empty list. Each cell is
   a pair of ints across two parallel arrays:

     leaf (node, flow):  fst = -(node + 1)   snd = flow
     cat  (left, right): fst = left index    snd = right index

   [snoc]/[append] are O(1) pushes into preallocated storage, so the
   merge inner loops of the DP solvers allocate zero GC words (growth
   doubles the backing arrays, amortized and absent once the arena has
   reached steady size — which is what the zero-alloc bench assert
   measures). Structure sharing is free: a cell index can appear as a
   child of any number of later cells.

   Arenas are single-writer: the parallel sibling fan-out gives each
   domain a private arena and {!graft}s the results back into the
   parent's arena after the join, preserving sharing through forwarding
   records left in the consumed source. Long-lived arenas (the incremental memos) reclaim dead
   cells with the {!compact_begin}/{!compact_root}/{!compact_commit}
   protocol: copy every live root into the domain's reusable target
   arena, rewrite the stored indices, copy the compacted cells back. *)

type t = {
  mutable fst_ : int array;
  mutable snd_ : int array;
  mutable len : int; (* next free cell; cell 0 is [empty] *)
}

let empty = 0

let create ?(capacity = 1024) () =
  let capacity = max 2 capacity in
  { fst_ = Array.make capacity 0; snd_ = Array.make capacity 0; len = 1 }

let length t = t.len

let clear t = t.len <- 1

let[@inline never] grow t =
  let cap = Array.length t.fst_ * 2 in
  let fst' = Array.make cap 0 and snd' = Array.make cap 0 in
  Array.blit t.fst_ 0 fst' 0 t.len;
  Array.blit t.snd_ 0 snd' 0 t.len;
  t.fst_ <- fst';
  t.snd_ <- snd'

let[@inline] push t a b =
  if t.len >= Array.length t.fst_ then grow t;
  let i = t.len in
  t.fst_.(i) <- a;
  t.snd_.(i) <- b;
  t.len <- i + 1;
  i

let[@inline] leaf t ~node ~flow = push t (-node - 1) flow

let[@inline] append t l r = if l = 0 then r else if r = 0 then l else push t l r

let[@inline] snoc t l ~node ~flow = append t l (leaf t ~node ~flow)

(* In-order traversal (left to right), explicit int stack so deep
   left/right spines cannot overflow the OCaml stack. *)
let iter t f root =
  if root <> 0 then begin
    let stack = ref (Array.make 64 0) in
    let sp = ref 0 in
    let push_s v =
      if !sp >= Array.length !stack then begin
        let s' = Array.make (2 * Array.length !stack) 0 in
        Array.blit !stack 0 s' 0 !sp;
        stack := s'
      end;
      !stack.(!sp) <- v;
      incr sp
    in
    push_s root;
    while !sp > 0 do
      decr sp;
      let i = !stack.(!sp) in
      if i <> 0 then begin
        let a = t.fst_.(i) in
        if a < 0 then f (-a - 1) t.snd_.(i)
        else begin
          (* right pushed first so left pops (and visits) first *)
          push_s t.snd_.(i);
          push_s a
        end
      end
    done
  end

let nodes t root =
  let acc = ref [] in
  iter t (fun node _flow -> acc := node :: !acc) root;
  List.rev !acc

let to_list t root =
  let acc = ref [] in
  iter t (fun node flow -> acc := (node, flow) :: !acc) root;
  List.rev !acc

let count t root =
  let n = ref 0 in
  iter t (fun _ _ -> incr n) root;
  !n

(* Grafting moves cells out of [src] Cheney-style: a copied cell is
   overwritten by a forwarding record, fst = 0 and snd = its index in
   [dst]. No live cell has fst = 0 (a leaf's is negative, a cat's left
   child is a non-empty index), so the mark is unambiguous, and sharing
   survives without any side map.

   Compaction state, one per domain ({!Domain.DLS}): the traversal
   stack and the target arena survive from one compaction (or graft) to
   the next, so a steady-state compaction allocates nothing; storage
   grows only when more cells are live than in any compaction before. *)
type compaction = { mutable stack : int array; target : t }

let compactor =
  Domain.DLS.new_key (fun () -> { stack = Array.make 64 0; target = create () })

let[@inline never] grow_stack c =
  let s' = Array.make (2 * Array.length c.stack) 0 in
  Array.blit c.stack 0 s' 0 (Array.length c.stack);
  c.stack <- s'

let[@inline] spush c sp v =
  if sp >= Array.length c.stack then grow_stack c;
  c.stack.(sp) <- v

let[@inline] forward src i k =
  src.fst_.(i) <- 0;
  src.snd_.(i) <- k

(* Iterative two-phase traversal on [c]'s stack: a cat cell is
   revisited (encoded as [lnot i]) once both children have been moved.
   The stack is empty again on return. *)
let graft_with c ~src ~dst root =
  if root = 0 then 0
  else begin
    let sp = ref 1 in
    spush c 0 root;
    while !sp > 0 do
      decr sp;
      let tagged = c.stack.(!sp) in
      if tagged < 0 then begin
        (* second visit of a cat cell: both children are forwarded *)
        let i = lnot tagged in
        let l = src.fst_.(i) in
        if l <> 0 then begin
          let r = src.snd_.(i) in
          forward src i (push dst src.snd_.(l) src.snd_.(r))
        end
      end
      else begin
        let i = tagged in
        let a = src.fst_.(i) in
        if i <> 0 && a <> 0 then begin
          if a < 0 then forward src i (push dst a src.snd_.(i))
          else begin
            spush c !sp (lnot i);
            spush c (!sp + 1) a;
            spush c (!sp + 2) src.snd_.(i);
            sp := !sp + 3
          end
        end
      end
    done;
    src.snd_.(root)
  end

let graft ~src ~dst root = graft_with (Domain.DLS.get compactor) ~src ~dst root

let compact_begin _t =
  let c = Domain.DLS.get compactor in
  clear c.target;
  c

let compact_root t c root = graft_with c ~src:t ~dst:c.target root

(* Copy back rather than swap: [t] keeps its own (already large enough)
   storage and the compactor keeps its target for the next round. *)
let compact_commit t c =
  let n = c.target.len in
  Array.blit c.target.fst_ 0 t.fst_ 0 n;
  Array.blit c.target.snd_ 0 t.snd_ 0 n;
  t.len <- n
