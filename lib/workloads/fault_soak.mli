(** Fault-injection soak: the LMBench-style op mix (null syscalls,
    open/close, mmap/munmap, fork/exit/wait, signals) run under a
    deterministic {!Nkinject} injector with the TLB-coherence oracle
    and the nested-kernel invariant audit enabled.

    The pass criterion is graceful degradation: every injected fault
    surfaces as an errno to the caller (or is absorbed), never as an
    escaped OCaml exception, a stale-and-more-permissive TLB entry, or
    a broken nested-kernel invariant.  Same seed, same sites, same
    rate → byte-identical result record. *)

type result = {
  seed : int;
  rate : float;
  ops : int;
  completed : int;  (** ops that returned [Ok] despite injection *)
  degraded : int;  (** ops that failed cleanly with an errno *)
  injected : (string * int) list;  (** per-site injected-fault counts *)
  total_injected : int;
  escaped_exceptions : int;  (** must be 0 *)
  escapes : string list;  (** first few escaped exceptions, for triage *)
  coherence_violations : int;  (** must be 0 *)
  invariant_failures : int;  (** must be 0 *)
  flush_deferred : int;  (** unmaps that took the lazy-flush path *)
  flush_drained : int;  (** deferred records flushed; must equal the above *)
  deferred_live : int;  (** records left after the final drain; must be 0 *)
  cycles : int;  (** final simulated-clock reading *)
}

val run :
  ?ops:int -> ?rate:float -> ?sites:Nkinject.site list -> ?frames:int ->
  seed:int -> unit -> result
(** Boot Perspicuos with [frames] physical frames (default 4096, small
    enough that genuine exhaustion joins the injected faults), run
    [ops] operations (default 20000) at per-site probability [rate]
    (default 0.01) over [sites] (default: all). *)

val survived : result -> bool
(** Zero escapes, zero oracle violations, zero invariant failures, and
    the deferred-unmap books balance: every lazily deferred flush was
    eventually drained ([flush_deferred = flush_drained]) with nothing
    left queued. *)

val to_table : result -> Stats.table

val to_json : host_secs:float -> result -> Nktrace.Json.t
(** The bench section, with every count {!survived} reads. *)
