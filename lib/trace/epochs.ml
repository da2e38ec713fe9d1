let check_window window =
  if window <= 0. then invalid_arg "Epochs: window must be positive"

let candidate ~window t = int_of_float (Float.floor (t /. window))

(* One past the last window starting at or before the final event, so
   every window that holds an event is on the grid. *)
let epoch_count trace ~window =
  check_window window;
  let d = Trace.duration trace in
  let k = candidate ~window d and last = ref 0 in
  for c = k - 1 to k + 1 do
    if c > !last && float_of_int c *. window <= d then last := c
  done;
  !last + 1

(* The bucketing kernel: one pass over the time-sorted events into a
   dense [rows][slot] count grid for windows [first, first + rows).
   Client [i] of node [j] is slot [offsets.(j) + i]; the last slot takes
   the events naming no client of the tree. Window [c] holds [t] when
   [start <= t < start +. window] with [start = float c *. window].
   Rounding can make neighbouring windows overlap or leave a gap, so the
   predicate is tried on [floor (t /. window)] and both neighbours. *)
let bucket trace tree ~window ~first ~rows =
  let n = Tree.size tree in
  let offsets = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    offsets.(j + 1) <- offsets.(j) + List.length (Tree.clients tree j)
  done;
  let cols = offsets.(n) + 1 in
  let grid = Array.make (rows * cols) 0 in
  Trace.iter
    (fun { Trace.time = t; node = j; client = i } ->
      let slot =
        if j >= 0 && j < n && i >= 0 && i < offsets.(j + 1) - offsets.(j)
        then offsets.(j) + i
        else cols - 1
      in
      let k = candidate ~window t in
      for c = Int.max first (k - 1) to Int.min (first + rows - 1) (k + 1) do
        let start = float_of_int c *. window in
        let cell = ((c - first) * cols) + slot in
        if start <= t && t < start +. window then grid.(cell) <- grid.(cell) + 1
      done)
    trace;
  (offsets, cols, grid)

(* The demand view of grid row [row]: each client's count over
   [window], rounded; clients observed idle disappear. *)
let view tree ~window (offsets, cols, grid) ~row =
  Tree.with_clients tree (fun j ->
      let acc = ref [] in
      for s = offsets.(j + 1) - 1 downto offsets.(j) do
        let events = grid.((row * cols) + s) in
        let r = int_of_float (Float.round (float_of_int events /. window)) in
        if r > 0 then acc := r :: !acc
      done;
      !acc)

let rates trace tree ~window ~index =
  check_window window;
  if index < 0 then invalid_arg "Epochs: negative index";
  view tree ~window (bucket trace tree ~window ~first:index ~rows:1) ~row:0

let epochs_multi streams ~window =
  check_window window;
  (* One shared window grid across every stream: the count covers the
     longest stream, and every stream is aggregated on that grid, so
     epoch k of stream A and epoch k of stream B describe the same
     wall-clock interval. A stream that ends early simply goes idle in
     the later windows. *)
  let count =
    List.fold_left
      (fun acc (trace, _) -> max acc (epoch_count trace ~window))
      1 streams
  in
  let grids =
    List.map
      (fun (trace, tree) ->
        (tree, bucket trace tree ~window ~first:0 ~rows:count))
      streams
  in
  (* Epoch-major, so one epoch's views of every stream sit together in
     memory, as a step reads them. *)
  List.init count (fun row ->
      List.map (fun (tree, grid) -> view tree ~window grid ~row) grids)

let epochs trace tree ~window =
  List.map List.hd (epochs_multi [ (trace, tree) ] ~window)

let changed_marks prev next =
  if Tree.size prev <> Tree.size next then
    invalid_arg "Epochs: changed_nodes expects views of one network";
  Array.init (Tree.size next) (fun j -> not (Tree.same_clients prev next j))

let changed_nodes prev next =
  let marks = changed_marks prev next in
  let acc = ref [] in
  for j = Array.length marks - 1 downto 0 do
    if marks.(j) then acc := j :: !acc
  done;
  !acc

let conservation_check trace tree ~window =
  let _, _, grid =
    bucket trace tree ~window ~first:0 ~rows:(epoch_count trace ~window)
  in
  Array.fold_left ( + ) 0 grid = Trace.length trace
