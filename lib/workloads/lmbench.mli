open Outer_kernel

(** LMBench-style OS microbenchmarks (paper Figure 4).

    The eight benchmarks of the paper's Figure 4, run against any
    system configuration.  Each performs real kernel work in the
    simulator — system-call dispatch, VFS operations, page-table
    updates through the configured MMU backend, trap delivery — so the
    per-configuration differences come from the mediation machinery,
    not from baked-in factors. *)

type bench = {
  name : string;
  iterations : int;  (** default repetition count *)
  setup : Kernel.t -> Proc.t -> unit -> unit;
      (** performs one-time preparation and returns the per-iteration
          thunk *)
}

val benches : bench list
(** null syscall, open/close, mmap, page fault, signal install,
    signal delivery, fork+exit, fork+exec — in the paper's order. *)

val measure :
  ?iterations:int -> Config.t -> batched:bool -> bench ->
  float
(** Simulated microseconds per iteration on a freshly booted system. *)

val measure_traced :
  ?iterations:int -> Config.t -> batched:bool -> bench ->
  Nktrace.snapshot
(** Run the benchmark on a freshly booted system with the {!Nktrace}
    tracer enabled and return the trace snapshot for the measured
    iterations (warm-up samples are cleared first).  The per-syscall
    dispatch spans and gate-crossing spans in the snapshot's
    histograms give per-operation latency distributions. *)

type figure4_row = {
  bench_name : string;
  native_us : float;
  relative : (Config.t * float) list;
      (** time relative to native, per nested configuration *)
}

val figure4 : ?batched:bool -> unit -> figure4_row list

val to_table : figure4_row list -> Stats.table
