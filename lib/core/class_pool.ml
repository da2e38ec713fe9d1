(* Free lists of table storage by capacity class, shared by the
   incremental memos of Dp_withpre and Dp_power (see the .mli). *)

type 'a t = {
  none : 'a; (* class 0: fills vacated slots, holding on to nothing *)
  fresh : int -> 'a; (* new storage of class k *)
  cells : 'a -> int; (* a table's storage size, a power of two *)
  recycled : Stats_counters.counter;
  free : 'a array array; (* per class, a stack of tables *)
  free_len : int array; (* live prefix of each [free] stack *)
  cached : int array; (* per class, tables held by the memo *)
}

let create ~fresh ~cells ~recycled =
  {
    none = fresh 0;
    fresh;
    cells;
    recycled;
    free = Array.make Sys.int_size [||];
    free_len = Array.make Sys.int_size 0;
    cached = Array.make Sys.int_size 0;
  }

(* Smallest k with 2^k >= cells. *)
let size_class cells =
  let k = ref 0 in
  while 1 lsl !k < cells do
    incr k
  done;
  !k

let take p cells =
  let k = size_class cells in
  p.cached.(k) <- p.cached.(k) + 1;
  let n = p.free_len.(k) in
  if n = 0 then p.fresh k
  else begin
    p.free_len.(k) <- n - 1;
    let t = p.free.(k).(n - 1) in
    p.free.(k).(n - 1) <- p.none;
    Stats_counters.incr p.recycled;
    t
  end

let recycle p t =
  let k = size_class (p.cells t) in
  p.cached.(k) <- p.cached.(k) - 1;
  let n = p.free_len.(k) in
  if n < p.cached.(k) then begin
    if n = Array.length p.free.(k) then begin
      let grown = Array.make (max 8 (2 * n)) p.none in
      Array.blit p.free.(k) 0 grown 0 n;
      p.free.(k) <- grown
    end;
    p.free.(k).(n) <- t;
    p.free_len.(k) <- n + 1
  end

let clear p =
  Array.fill p.free 0 Sys.int_size [||];
  Array.fill p.free_len 0 Sys.int_size 0;
  Array.fill p.cached 0 Sys.int_size 0
