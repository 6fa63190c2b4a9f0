open Outer_kernel

(** Event-driven serving at scale (the tentpole experiment, E15): the
    {!Kvserver} on 8 vCPUs behind one shared sharded listener, swept
    from 1k to 100k live connections per configuration under the
    seeded SMP executor, the open-loop {!Loadgen} population, and —
    for nested configurations — the TLB-coherence oracle.

    The claims the sweep substantiates: request p50/p99/p999 and the
    cost of one fd open/close pair do not grow with the live
    population; accepts stay CPU-local until a worker lags (then they
    steal); the slab magazines keep connection churn off the shared
    free list; and the oracle and WP audit stay clean throughout. *)

type point = {
  config : Config.t;
  conns : int;
  seed : int;
  steps : int;
  live_peak : int;
  accepted : int;
  completed : int;
  gets : int;
  sets : int;
  p50 : int;
  p99 : int;
  p999 : int;
  fd_op_cycles : int;
  accepts_local : int;
  accepts_steal : int;
  backlog_drops : int;
  epoll_wakeups : int;
  slab_hits : int;
  slab_refills : int;
  cycles : int;
  host_secs : float;
      (** host wall-clock for the whole cell, boot included — the
          denominator of the point's simulated-cycles-per-host-second
          wallclock rate; the one field that varies run to run *)
  oracle_violations : int;
  audit_failures : int;
}

val conn_counts : int list
(** 1k, 5k, 10k, 50k, 100k. *)

val configs : Config.t list
(** Native and base PerspicuOS. *)

val cpus : int

val run_one : ?seed:int -> ?et:bool -> config:Config.t -> int -> point
(** One (config, live-connection target) cell; [et] runs the workers'
    connections edge-triggered. *)

val run : ?seed:int -> ?et:bool -> ?conn_counts:int list -> unit -> point list
val to_table : point list -> Stats.table
