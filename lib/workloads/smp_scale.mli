(** SMP scaling workload: a fixed process mix scheduled across 1, 2, 4
    and 8 vCPUs by the deterministic seeded executor.  All metrics are
    simulated-cycle arithmetic — the same seed reproduces every number
    exactly. *)

type point = {
  cpus : int;
  seed : int;
  steps : int;  (** executor steps actually taken *)
  syscalls : int;  (** syscalls retired during the run *)
  cycles : int;  (** simulated cycles consumed *)
  throughput : float;  (** syscalls per million cycles *)
  shootdowns : int list;  (** shootdown IPIs received, per CPU id *)
  ipis : int;  (** shootdown IPIs posted in total *)
  sent : int;  (** per-peer shootdown IPIs actually sent *)
  filtered : int;  (** peers skipped by residency/occupancy filtering *)
  coalesced : int;  (** per-PTE invalidations merged away by batching *)
  deferred : int;  (** unmap invalidations parked on the lazy queue *)
  reuse : int;  (** deferred invalidations fired by frame reuse *)
  steals : int;  (** work-stealing events *)
  migrations : int;  (** CPU activations (executor CPU switches) *)
  oracle_violations : int;
      (** coherence-oracle violations (0 unless [coherence] was set) *)
  audit_failures : int;  (** nested-kernel invariant violations at the end *)
}

val cpu_counts : int list
(** The sweep: [1; 2; 4; 8]. *)

val run_one :
  ?seed:int -> ?procs:int -> ?steps:int -> ?coherence:bool -> int -> point
(** Boot Perspicuos with that many CPUs, fork [procs] (default 8)
    processes onto the boot CPU (idle APs must steal their share),
    drive [steps] (default 4000) executor quanta of getpid + periodic
    mmap/munmap churn.  [coherence] (default off) runs the whole sweep
    under the differential TLB oracle — cycle-free, so the measured
    numbers do not move — and reports violations in the point. *)

val run :
  ?seed:int -> ?procs:int -> ?steps:int -> ?coherence:bool -> unit ->
  point list
(** {!run_one} across {!cpu_counts}; seed defaults to
    {!Harness.env_seed}. *)

val to_table : point list -> Stats.table
