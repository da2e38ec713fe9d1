type event = { time : float; node : Tree.node; client : int }

type t = event array

(* The (time, node, client) order: total, and two events tie only when
   they are equal records, so every sort or merge of the same events
   gives the same array. *)
let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c
  else
    let c = Int.compare a.node b.node in
    if c <> 0 then c else Int.compare a.client b.client

let of_events l =
  List.iter
    (fun e ->
      if e.time < 0. || Float.is_nan e.time then
        invalid_arg "Trace.of_events: negative timestamp")
    l;
  let a = Array.of_list l in
  Array.stable_sort compare_event a;
  a

let events t = Array.to_list t
let iter = Array.iter
let length = Array.length

let duration t = if Array.length t = 0 then 0. else t.(Array.length t - 1).time

(* k-way merge of already-sorted streams through a binary min-heap of
   stream indices keyed by each stream's next event: O(E log k) into one
   output array, and nothing is re-sorted. *)
let merge_all ts =
  let srcs = Array.of_list (List.filter (fun t -> Array.length t > 0) ts) in
  let pos = Array.make (Array.length srcs) 0 in
  let heap = Array.init (Array.length srcs) Fun.id in
  let live = ref (Array.length srcs) in
  let before a b =
    compare_event srcs.(a).(pos.(a)) srcs.(b).(pos.(b)) < 0
  in
  let rec sift i =
    let l = (2 * i) + 1 in
    let m =
      if l + 1 < !live && before heap.(l + 1) heap.(l) then l + 1 else l
    in
    if m < !live && before heap.(m) heap.(i) then begin
      let s = heap.(i) in
      heap.(i) <- heap.(m);
      heap.(m) <- s;
      sift m
    end
  in
  for i = (!live / 2) - 1 downto 0 do
    sift i
  done;
  Array.init (Array.fold_left (fun n t -> n + Array.length t) 0 srcs)
    (fun _ ->
      let s = heap.(0) in
      let e = srcs.(s).(pos.(s)) in
      pos.(s) <- pos.(s) + 1;
      if pos.(s) = Array.length srcs.(s) then begin
        decr live;
        heap.(0) <- heap.(!live)
      end;
      sift 0;
      e)

let merge a b = merge_all [ a; b ]

let filter p t =
  let kept = Array.copy t and n = ref 0 in
  Array.iter (fun e -> if p e then (kept.(!n) <- e; incr n)) t;
  Array.sub kept 0 !n

let count_by_client t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      let key = (e.node, e.client) in
      Hashtbl.replace tbl key
        ((try Hashtbl.find tbl key with Not_found -> 0) + 1))
    t;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
