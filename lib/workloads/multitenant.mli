open Outer_kernel

(** Multi-tenant serving benchmark: N mutually distrusting tenant
    domains above one nested kernel (each with its own kv server,
    listener and open-loop load, scheduled under per-domain run-queue
    credits, churning an mmap scratch every quantum), compared against
    a single-domain native run and a simulated-hypervisor baseline
    where every mediated MMU operation pays a VMCALL round trip. *)

type tenant = {
  t_domain : int;
  t_pid : Ktypes.pid;
  t_completed : int;  (** requests answered end-to-end *)
  t_gets : int;
  t_sets : int;
  t_live_peak : int;
}

type point = {
  config : Config.t;
  tenants : int;
  conns : int;  (** per-tenant live-connection target *)
  seed : int;
  steps : int;
  per_tenant : tenant list;
  completed : int;
  p50 : int;
  p99 : int;
  p999 : int;
  throughput : float;  (** requests per simulated Mcycle, aggregate *)
  xdom_denials : int;
  vmcalls : int;
  sched_epochs : int;
  pipe_words : int;
  teardown_leaks : int;
  cycles : int;
  host_secs : float;
  oracle_violations : int;
  audit_failures : int;
}

val cpus : int
val tenant_counts : int list
val configs : Config.t list
val default_conns : int
val scratch_pages : int
val scratch_iters : int

val run_one :
  ?seed:int -> ?tenants:int -> ?conns:int -> config:Config.t -> unit -> point

val run :
  ?seed:int -> ?tenant_counts:int list -> ?conns:int -> unit -> point list

val to_table : point list -> Stats.table
