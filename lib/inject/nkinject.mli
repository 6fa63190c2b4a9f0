(** Deterministic fault injection.

    A seeded, typed fault injector in the style of {!Smp.Executor}:
    the whole schedule of injected faults is a pure function of the
    seed, the site mask and the per-site rate, so the same
    configuration reproduces the same faults — and hence the same
    trace and bench output — byte for byte.

    Each subsystem that can fail holds an optional injector and asks
    {!fire} at its {e injection site} before doing the real work.  A
    site that is masked out draws nothing from the PRNG, so enabling
    one site never perturbs the schedule of another, and a present-
    but-disarmed injector is behaviourally identical to none at all.
    Injection charges no simulated cycles: a fault changes the
    control flow (an [Error] instead of an [Ok]), never the clock.

    Every injected fault bumps a per-site count here ({!counts}) and,
    when a tracer is attached and enabled, drops an [inject_<site>]
    mark into the same {!Nktrace} ring as the rest of the run. *)

type site =
  | Frame_exhausted  (** [Frame_alloc.alloc] returns [None] *)
  | Pheap_exhausted  (** nested-kernel protected heap returns [None] *)
  | Asid_exhausted  (** [Asid_pool.alloc] is forced onto the steal path *)
  | Pte_write_error  (** [Mmu_backend.write_pte] returns [Error] *)
  | Pte_batch_error  (** [Mmu_backend.write_pte_batch] returns [Error] *)
  | Gate_denied  (** nested-kernel gate entry refused *)
  | Ipi_drop  (** a sent IPI (Reschedule/Shootdown) is lost *)
  | Ipi_delay  (** a sent IPI is deferred to the next mailbox drain *)
  | Sys_enomem  (** syscall dispatcher returns [ENOMEM] *)
  | Sys_efault  (** syscall dispatcher returns [EFAULT] *)
  | Accept_overflow
      (** an incoming connection is dropped as if the listen backlog
          were full, exercising the server's overload path *)

val all_sites : site list
(** Every site, in declaration order. *)

val site_name : site -> string
(** Short CLI-friendly name, e.g. ["frame"], ["pte-write"]. *)

val site_of_name : string -> site option

val scramble : int -> int
(** The initial state of the simulator's seeded xorshift for a seed:
    a golden-ratio multiply, so nearby seeds diverge at once, never 0
    (a fixed point of {!xorshift}).  The injector, the SMP executor
    and the fault soak's operation mix all seed their streams with
    it. *)

val xorshift : int -> int
(** One 13/7/17 xorshift step over the non-negative ints. *)

type t

val create : ?sites:site list -> seed:int -> rate:float -> unit -> t
(** An injector firing each site in [sites] (default: all) with
    probability [rate] (clamped to [0,1]).  Armed on creation. *)

val seed : t -> int
val rate : t -> float

val armed : t -> bool

val set_armed : t -> bool -> unit
(** A disarmed injector never fires and never draws from the PRNG.
    [Kernel.boot] disarms the injector for the duration of boot so
    boot-time allocation can't be made to fail. *)

val fire : t -> site -> bool
(** Ask the injector whether the fault at [site] should be injected
    now.  Draws one PRNG step iff the site is enabled and the
    injector armed; bumps the site's injected count (and marks
    [inject_<site>] in the trace ring) when it fires. *)

val fire_opt : t option -> site -> bool
(** [fire] through the optional-injector field a subsystem holds;
    [None] is a single match and never fires. *)

val set_trace : t -> Nktrace.t option -> unit
(** Attach the run's tracer so injected faults appear as
    [inject_<site>] marks in the same ring. *)

val injected : t -> site -> int
(** Faults actually injected at [site] so far. *)

val decisions : t -> site -> int
(** PRNG draws made at [site] so far (injected or not). *)

val total_injected : t -> int

val counts : t -> (string * int) list
(** [(site_name, injected)] for every enabled site, declaration
    order — the per-run fault schedule summary recorded by the
    [fault_soak] bench section. *)
