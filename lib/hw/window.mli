(** A measurement window: the simulated cycles and every {!Nktrace}
    counter, stamped together when the window opens and read as deltas
    afterwards.  The one way a workload, bench or test measures what a
    stretch of simulated execution cost and did.  Opening a window
    copies the counter array; it charges nothing. *)

type t

val start : Machine.t -> t

val cycles : t -> int
(** Simulated cycles charged since {!start}. *)

val count : t -> Nktrace.counter -> int
(** How far the counter moved since {!start}. *)

val repeat : ?warm:int -> Machine.t -> int -> (unit -> unit) -> t
(** [repeat ~warm m n f] runs [f] [warm] times (default 0) to warm
    caches and TLBs, then opens a window around [n] more runs and
    returns it. *)
