type basic = { create : float; delete : float }

let basic ?(create = 0.) ?(delete = 0.) () =
  if create < 0. || delete < 0. then invalid_arg "Cost.basic: negative cost";
  { create; delete }

let[@inline] basic_cost t ~servers ~reused ~pre_existing =
  if reused > servers || reused > pre_existing || reused < 0 || servers < 0
  then invalid_arg "Cost.basic_cost: inconsistent counts";
  float_of_int servers
  +. (float_of_int (servers - reused) *. t.create)
  +. (float_of_int (pre_existing - reused) *. t.delete)

type modal = {
  create_m : float array;
  delete_m : float array;
  changed : float array array;
}

let modal ~create ~delete ~changed =
  let m = Array.length create in
  if m = 0 then invalid_arg "Cost.modal: no modes";
  if Array.length delete <> m || Array.length changed <> m then
    invalid_arg "Cost.modal: dimension mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> m then invalid_arg "Cost.modal: dimension mismatch";
      if row.(i) <> 0. then invalid_arg "Cost.modal: changed diagonal must be 0";
      Array.iter (fun c -> if c < 0. then invalid_arg "Cost.modal: negative cost") row)
    changed;
  Array.iter (fun c -> if c < 0. then invalid_arg "Cost.modal: negative cost") create;
  Array.iter (fun c -> if c < 0. then invalid_arg "Cost.modal: negative cost") delete;
  { create_m = create; delete_m = delete; changed }

let modal_uniform ~modes ~create ~delete ~changed =
  modal
    ~create:(Array.make modes create)
    ~delete:(Array.make modes delete)
    ~changed:
      (Array.init modes (fun i ->
           Array.init modes (fun i' -> if i = i' then 0. else changed)))

let paper_cheap ~modes = modal_uniform ~modes ~create:0.1 ~delete:0.01 ~changed:0.001
let paper_expensive ~modes = modal_uniform ~modes ~create:1. ~delete:1. ~changed:0.1

let mode_count t = Array.length t.create_m

let is_mode_monotone t =
  let m = mode_count t in
  let nondecreasing get =
    let ok = ref true in
    for i = 0 to m - 2 do
      if get (i + 1) < get i then ok := false
    done;
    !ok
  in
  nondecreasing (fun i -> t.create_m.(i))
  && Array.for_all (fun row -> nondecreasing (fun i -> row.(i))) t.changed

type tally = {
  created : int array;
  reused : int array array;
  deleted : int array;
}

let empty_tally ~modes =
  {
    created = Array.make modes 0;
    reused = Array.init modes (fun _ -> Array.make modes 0);
    deleted = Array.make modes 0;
  }

let tally_servers t =
  Array.fold_left ( + ) 0 t.created
  + Array.fold_left (fun acc row -> acc + Array.fold_left ( + ) 0 row) 0 t.reused

let modal_cost t tally =
  let m = mode_count t in
  if
    Array.length tally.created <> m
    || Array.length tally.reused <> m
    || Array.length tally.deleted <> m
  then invalid_arg "Cost.modal_cost: mode count mismatch";
  let total = ref (float_of_int (tally_servers tally)) in
  for i = 0 to m - 1 do
    total := !total +. (float_of_int tally.created.(i) *. t.create_m.(i));
    total := !total +. (float_of_int tally.deleted.(i) *. t.delete_m.(i));
    for i' = 0 to m - 1 do
      total := !total +. (float_of_int tally.reused.(i).(i') *. t.changed.(i).(i'))
    done
  done;
  !total

let basic_of_modal_inputs = basic_cost
