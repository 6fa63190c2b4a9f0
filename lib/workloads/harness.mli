(** What every workload shares around its measured run: the scheduler
    seed, the coherence oracle armed after boot, and one checked
    close-out.  Measurement itself goes through {!Nkhw.Window}. *)

open Outer_kernel

val default_seed : int

val env_seed : unit -> int
(** [NKSIM_SCHED_SEED] if set and numeric, else {!default_seed} — the
    one reader of that variable. *)

type t

val arm : ?oracle:bool -> Kernel.t -> t
(** Call right after boot.  On a nested kernel with [oracle] (default
    true) this installs the TLB-coherence oracle in counting mode:
    violations are tallied for {!close} instead of raised. *)

val settle : ?sweep:bool -> Nested_kernel.Api.t -> int * int
(** The close-out's tail, for a run that armed its own oracle: drain
    every deferred unmap, then take the oracle's final sweep (skipped
    when [sweep] is false), then the invariant audit.  Returns (sweep
    violations, audit failures).  The audit reads memory through the
    MMU, so it charges cycles and TLB traffic like any kernel read. *)

val close : t -> int * int
(** {!settle} the run (sweeping only if the oracle was armed) and
    return (oracle violations over the whole run, audit failures); a
    native boot returns [(0, 0)]. *)

val violations : t -> int
(** Oracle violations so far, sweep included — for a workload that
    keeps running checked code after {!close}. *)
