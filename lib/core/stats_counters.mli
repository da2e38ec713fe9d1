(** Lightweight counter/timer registry for solver observability.

    The dynamic programs are the cost center of every experiment, yet
    until now they ran blind: no visibility into how many table cells a
    merge allocates, how many cartesian products it attempts, or where
    the wall time goes. This module is the measurement substrate: a
    process-global registry of named monotonic counters and wall-clock
    timers that the solvers ({!Dp_power}, {!Dp_withpre}, {!Brute}) bump
    on their hot paths and that {!Report}, the CLI's [--stats] flag and
    the benchmark harness read back out.

    Design constraints, in order:
    - {b hot-path cheap}: bumping a counter is one [Atomic] add on a
      pre-registered cell — no allocation, no hashing, no formatting.
      Solvers register their counters once at module initialization and
      batch inner-loop increments into a single [add] per merge.
    - {b domain-safe}: counters are [Atomic.t int], so concurrent bumps
      from {!Par} workers never tear. Totals are deterministic for a
      fixed workload because integer addition commutes and
      {!record_max} only depends on the {e set} of observed values, not
      their order — parallel and sequential runs report identical
      numbers.
    - {b deterministic output}: {!counters}, {!timers}, {!report} and
      {!to_json} list entries sorted by name.

    The registry accumulates across solves until {!reset}; harnesses
    that attribute numbers to a single run must call {!reset} first —
    or bracket the run with {!snapshot} and attribute {!diff}s, as the
    engine does per epoch. Timers measure elapsed (not CPU) seconds on
    {!Replica_obs.Clock}'s monotonic clock, so parallel phases report
    wall time and accumulated {!seconds} can never go negative; they
    remain {e not} reproducible between runs — deterministic surfaces
    (cram tests) print counters only. *)

type counter
(** A named monotonic integer cell. *)

val counter : string -> counter
(** [counter name] registers (or retrieves — names are interned) the
    counter [name]. Dotted names ([solver.metric]) are the convention.
    Intended to be called from top-level module initializers; interning
    is mutex-protected, increments are lock-free. *)

val incr : counter -> unit

val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** [record_max c v] raises [c] to [v] if [v] is larger — a high-water
    mark (e.g. peak table size). *)

val value : counter -> int

type timer
(** A named accumulating wall-clock timer. *)

val timer : string -> timer
(** Same interning contract as {!counter}. *)

val time : timer -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()] and adds its wall-clock duration to [t].
    Re-raises whatever [f] raises, still accounting the elapsed time. *)

val seconds : timer -> float
(** Accumulated seconds (nanosecond resolution). *)

val reset : unit -> unit
(** Zero every registered counter and timer (registration survives). *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val timers : unit -> (string * float) list
(** All timers as accumulated seconds, sorted by name. *)

type snapshot = (string * int) list
(** A point-in-time copy of every counter, sorted by name. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> (string * int) list
(** [diff before after] is the per-counter movement between two
    snapshots: [(name, after - before)] for every counter whose value
    changed (counters absent from [before] — registered in between —
    count from 0). Sorted by name, zero deltas omitted. This is how
    the engine attributes registry movement to a single epoch.

    Both arguments must be sorted by name, as {!snapshot} returns them:
    the diff is one merge pass over the two lists. *)

val counters_report : unit -> string
(** Aligned [name value] lines for counters only — deterministic for a
    fixed workload, safe to pin in cram tests. Never-touched (zero)
    counters are omitted: their existence depends on which solver
    modules the binary links, not on the workload. {!to_json} keeps
    them. *)

val report : unit -> string
(** {!counters_report} plus wall-clock timer lines (nondeterministic). *)

val to_json : unit -> string
(** The whole registry as one JSON object:
    [{"counters": {...}, "timers_seconds": {...}}]. Keys sorted. *)
