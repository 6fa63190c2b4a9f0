open Outer_kernel

(** Kernel-compile model (paper Table 4).

    A `make`-style driver fork+execs one compiler process per
    translation unit; each compile opens headers and the source, reads
    them, burns user CPU, writes an object, and exits; a final link
    reads every object.  The nested kernel's cost concentrates in the
    fork/exec/exit storm (address-space construction and teardown) and
    is diluted by user compute — the paper measures 2.6% overall. *)

type result = {
  config : Config.t;
  elapsed_s : float;
  sys_share_pct : float;  (** fraction of time spent in kernel paths *)
  overhead_pct : float;  (** vs native *)
}

val run : ?units:int -> unit -> result list
(** Build with [units] translation units (default 24). *)

val to_table : result list -> Stats.table
