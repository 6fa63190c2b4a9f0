(** What every workload shares around its measured run: the scheduler
    seed, the coherence oracle armed after boot, one checked close-out,
    the host wallclock rate, and the bound helpers each acceptance
    [check] is written with.  Measurement itself goes through
    {!Nkhw.Window}. *)

open Outer_kernel

val default_seed : int

val env_seed : unit -> int
(** [NKSIM_SCHED_SEED] if set and numeric, else {!default_seed} — the
    one reader of that variable. *)

type t

val arm : Kernel.t -> t
(** Call right after boot.  On a nested kernel this installs the
    TLB-coherence oracle in counting mode: violations are tallied for
    {!close} instead of raised. *)

val settle : Nested_kernel.Api.t -> int * int
(** The close-out's tail, for a run that armed its own oracle: drain
    every deferred unmap, then take the oracle's final sweep, then the
    invariant audit.  Returns (sweep violations, audit failures).  The
    audit reads memory through the MMU, so it charges cycles and TLB
    traffic like any kernel read. *)

val close : t -> int * int
(** {!settle} the run and return (oracle violations over the whole
    run, audit failures); a native boot returns [(0, 0)]. *)

val violations : t -> int
(** Oracle violations so far, sweep included — for a workload that
    keeps running checked code after {!close}. *)

val wallclock : int -> float -> float
(** The host-dependent wallclock rate: simulated cycles per host second
    (0 when no host time elapsed). *)

val unmet : (bool * string) list -> string list
(** The messages of the (holds, message) bounds that do not hold: what a
    workload's [check] returns. *)

val zeros : (string -> string) -> (string * int) list -> (bool * string) list
(** Each named count is 0, else [at "name = n"]. *)

val bound : string -> int option -> (int -> bool) -> string -> bool * string
(** [bound name v ok expected]: [v] is present and [ok], else
    ["name is v, expected ..."] with v "missing" when absent. *)
