(** Per-CPU round-robin scheduler with affinity and work stealing.

    Every CPU owns an O(1) run-queue deque; rotation semantics on each
    CPU match the classic round-robin (rotate, drop dead heads,
    dispatch the new front).  Context switches go through the kernel's
    MMU backend ([load_cr3], ASID/PCID-tagged when enabled), so under
    the nested kernel every switch pays a mediated control-register
    load — and the TLB-coherence oracle audits every migration's
    address-space move.  The context-switch overhead
    ({!Nkhw.Costs.t.ctx_switch}) is charged exactly once per actual
    switch, never on a self-switch. *)

type t

val create : Kernel.t -> t
(** One run queue per CPU ({!Nkhw.Smp.cpu_count}); the boot CPU's queue
    is seeded with its running process. *)

val add : t -> Ktypes.pid -> unit
(** Enqueue on the least-loaded CPU the process's affinity allows
    (lowest id breaks ties); no-op if already queued anywhere. *)

val add_on : t -> Ktypes.pid -> int -> unit
(** Enqueue on a specific CPU (no-op if already queued anywhere). *)

val remove : t -> Ktypes.pid -> unit
val queue : t -> Ktypes.pid list
(** All queued pids, CPU 0's queue first. *)

val queue_of : t -> int -> Ktypes.pid list
(** One CPU's queue, front first. *)

val set_domain_credits : t -> quantum:int -> unit
(** Enable deficit-round-robin across tenant domains: each domain may
    take at most [quantum] consecutive dispatches per epoch on a CPU
    while any co-queued domain still holds credit (so a hostile tenant
    is bounded to its fair share); when every queued domain is
    exhausted the epoch ends, all credits refill and
    {!Nktrace.Sched_epoch} is counted.  [quantum = 0] (the default)
    disables credits — dispatch order is then exactly the classic
    rotation. *)

val set_affinity : t -> Ktypes.pid -> int -> unit
(** Restrict a process to the CPUs set in the bitmask (bit [c] = CPU
    [c]); re-places the process if it currently queues on a forbidden
    CPU. *)

val affinity_of : t -> Ktypes.pid -> int

val yield : t -> (Ktypes.pid, Ktypes.errno) result
(** Rotate the {e active} CPU's queue to the next runnable process and
    switch address spaces.  Returns the pid now running.  Dead
    processes found at the head are dropped.  An empty queue first
    tries to steal from the most-loaded peer. *)

val yield_on : t -> int -> (Ktypes.pid, Ktypes.errno) result
(** [yield] for an explicit CPU: activates it first (a no-op under the
    executor, which already has) and rotates its queue. *)

val migrate : t -> Ktypes.pid -> to_cpu:int -> (unit, Ktypes.errno) result
(** Move a process to another CPU's queue and post a [Reschedule] IPI
    there.  [Error Einval] if the affinity mask forbids the target. *)

val run_until : t -> steps:int -> (Ktypes.pid -> bool) -> int
(** Yield repeatedly on the active CPU — up to [steps] times — running
    the callback for the process that just got the CPU, until it
    returns false.  Returns the number of switches performed. *)

val run_smp :
  t ->
  policy:Nkhw.Smp.Executor.policy ->
  steps:int ->
  (cpu:int -> Ktypes.pid -> bool) ->
  int
(** Drive all CPUs under a deterministic interleaving: each executor
    step activates one CPU (per the policy), drains its IPI mailbox,
    rotates its run queue and runs the callback for the dispatched
    process.  A CPU with nothing to run (and nothing to steal) idles;
    when no process is queued anywhere the run ends.  Returns executor
    steps taken. *)
