type counter = { c_name : string; cell : int Atomic.t }
type timer = { t_name : string; ns : int Atomic.t }

(* Registration is rare (top-level module initializers) and protected by
   a mutex; the hot path only ever touches the Atomic cells. *)
let lock = Mutex.create ()
let registered_counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let registered_timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt registered_counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.replace registered_counters name c;
          c)

let timer name =
  with_lock (fun () ->
      match Hashtbl.find_opt registered_timers name with
      | Some t -> t
      | None ->
          let t = { t_name = name; ns = Atomic.make 0 } in
          Hashtbl.replace registered_timers name t;
          t)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)
let add c n = ignore (Atomic.fetch_and_add c.cell n)

(* Top-level recursion, not a local [let rec]: the retry loop runs in
   the packed DP's zero-alloc merge path, where a per-call closure
   would show up in the allocation gate. *)
let rec record_max c v =
  let cur = Atomic.get c.cell in
  if v > cur && not (Atomic.compare_and_set c.cell cur v) then record_max c v

let value c = Atomic.get c.cell

(* CLOCK_MONOTONIC, not gettimeofday: the wall clock is steppable by
   NTP and can go backwards, which used to let accumulated [seconds]
   go negative under an adjustment landing inside a timed section. *)
let now_ns = Replica_obs.Clock.now_ns

let time t f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.ns (now_ns () - t0)))
    f

let seconds t = float_of_int (Atomic.get t.ns) /. 1e9

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registered_counters;
      Hashtbl.iter (fun _ t -> Atomic.set t.ns 0) registered_timers)

let sorted_values tbl value =
  with_lock (fun () ->
      Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl [])
  |> List.sort compare

let counters () = sorted_values registered_counters value
let timers () = sorted_values registered_timers seconds

type snapshot = (string * int) list

let snapshot () = counters ()

(* One merge pass over the two name-sorted lists: a name only in
   [after] (registered in between) counts from 0, a name only in
   [before] is skipped. *)
let rec diff before after =
  match (before, after) with
  | _, [] -> []
  | (kb, _) :: brest, (ka, _) :: _ when String.compare kb ka < 0 ->
      diff brest after
  | (kb, vb) :: brest, (ka, va) :: arest when String.equal kb ka ->
      moved ka (va - vb) (diff brest arest)
  | _, (ka, va) :: arest -> moved ka va (diff before arest)

and moved name d rest = if d <> 0 then (name, d) :: rest else rest

let pad_to entries =
  List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 entries

let counters_report () =
  (* Hide never-touched counters: which zero-valued cells exist depends
     on which solver modules the binary happens to link, not on the
     workload. *)
  let entries = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  let width = pad_to entries in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%-*s %d\n" width name v))
    entries;
  Buffer.contents buf

let report () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (counters_report ());
  let entries = List.filter (fun (_, s) -> s <> 0.) (timers ()) in
  let width = pad_to entries in
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf (Printf.sprintf "%-*s %.6f s\n" width name s))
    entries;
  Buffer.contents buf

(* Bridge this registry into the labeled metrics registry so
   [Prometheus.expose] and [Timeseries] see solver counters without a
   dependency from obs up to core. Counters surface as counter samples
   under their dotted names; timers as [name_seconds] gauges (the shape
   the exposition always used). Registered once at module load;
   re-registration is idempotent. *)
let () =
  Replica_obs.Metrics.register_collector ~name:"stats_counters" (fun () ->
      let counter_samples =
        List.filter_map
          (fun (name, v) ->
            if v = 0 then None
            else
              Some
                {
                  Replica_obs.Metrics.s_name = name;
                  s_labels = [];
                  s_value =
                    Replica_obs.Metrics.Sample_counter (float_of_int v);
                })
          (counters ())
      in
      let timer_samples =
        List.filter_map
          (fun (name, s) ->
            if s = 0. then None
            else
              Some
                {
                  Replica_obs.Metrics.s_name = name ^ "_seconds";
                  s_labels = [];
                  s_value = Replica_obs.Metrics.Sample_gauge s;
                })
          (timers ())
      in
      counter_samples @ timer_samples)

let to_json () =
  let buf = Buffer.create 512 in
  let obj fields render =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf "%S: " name);
        render v)
      fields;
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\"counters\": ";
  obj (counters ()) (fun v -> Buffer.add_string buf (string_of_int v));
  Buffer.add_string buf ", \"timers_seconds\": ";
  obj (timers ()) (fun s -> Buffer.add_string buf (Printf.sprintf "%.9f" s));
  Buffer.add_char buf '}';
  Buffer.contents buf
