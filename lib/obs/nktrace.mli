(** Cycle-stamped tracing and metrics for the nested-kernel simulator.

    [Nktrace] is the typed observability substrate the evaluation
    (paper section 5) reports through: counters for architectural
    events, begin/end spans whose durations feed latency histograms,
    and a fixed-capacity ring buffer of cycle-stamped event records.

    The tracer is strictly out-of-band: it never charges simulated
    cycles, so enabling-then-disabling tracing leaves the simulated
    clock bit-identical to never having touched it (pinned by a delta
    test, the same discipline as the TLB-coherence oracle).  Counters
    accumulate whether or not the tracer is enabled; the ring,
    histograms and spans are active only while enabled.

    The library is dependency-free; the host wires the cycle source in
    with {!set_now} (the simulator points it at its [Clock]). *)

(** Typed architectural event counters — the simulator's single event
    registry: every count is one of these constructors, and per-instance
    detail (which op was denied, which injection site fired) goes into
    the ring as a {!mark}.  Counters are {e always} live (see {!count});
    only the cycle-stamped ring is gated behind {!enable}. *)
type counter =
  | Tlb_flush_full
  | Tlb_flush_asid
  | Tlb_flush_page
  | Tlb_flush_span
  | Tlb_hit
  | Tlb_miss
  | Pte_write
  | Pte_write_batch
  | Declare_ptp
  | Remove_ptp
  | Load_cr0
  | Load_cr3
  | Load_cr3_pcid
  | Load_cr4
  | Load_efer
  | Nk_enter
  | Nk_declare
  | Nk_alloc
  | Nk_free
  | Nk_write
  | Nk_write_denied
  | Colocated_trap
  | Colocated_emulated_write
  | Syscall
  | Context_switch
  | Fork
  | Fork_vm
  | Exec
  | Exit
  | Vm_fault
  | Cow_copy
  | Vm_destroy
  | Cpu_migration  (** a real scheduling move of execution to another CPU *)
  | Cpu_borrow
      (** temporary [Smp.with_cpu] activate/restore pair — counted once
          per borrow, never as a migration *)
  | Ipi_reschedule
  | Ipi_shootdown  (** shootdown IPIs {e received} into a mailbox *)
  | Ipi_halt
  | Shootdown_sent
      (** per-peer shootdown actually delivered (flush + IPI charge) *)
  | Shootdown_filtered
      (** peer skipped by residency/occupancy filtering: no flush, no
          IPI charge — the win this counter makes visible *)
  | Shootdown_coalesced
      (** per-PTE invalidations a batch merged away into span flushes *)
  | Flush_deferred
      (** unmap whose invalidation was queued for frame reuse instead
          of being issued immediately *)
  | Flush_on_reuse
      (** deferred invalidation finally issued because the unmapped
          frame was handed out (or re-mapped) again *)
  | Sched_steal  (** run-queue work steal by an idle CPU *)
  | Signal_delivered
  | Syslog_event
  | Syslog_flush
  | Sock_conn_open  (** connection accepted into the server *)
  | Sock_conn_close  (** connection torn down (either side) *)
  | Sock_backlog_drop
      (** incoming connection dropped: listen backlog full (or the
          accept-overflow fault injector fired) *)
  | Accept_local  (** accept served from the CPU's own shard *)
  | Accept_steal  (** accept had to pull from another CPU's shard *)
  | Epoll_wakeup  (** ready events delivered by one [epoll_wait] *)
  | Slab_cpu_hit  (** kalloc served from the per-CPU magazine *)
  | Slab_cpu_refill  (** per-CPU magazine refilled from the global list *)
  | Slab_cpu_flush  (** per-CPU magazine overflow flushed back *)
  | Smi  (** system-management interrupt raised *)
  | Dma_write  (** device DMA write into physical memory *)
  | Trap  (** trap delivered through the IDT *)
  | Cr_write  (** [mov %cr] executed by simulated code *)
  | Wrmsr  (** [wrmsr] executed by simulated code *)
  | Vmcall  (** VMCALL round trip (hypervisor baseline, Table 3) *)
  | Asid_recycle  (** ASID slot stolen from a live address space *)
  | Sched_epoch  (** per-domain run-queue credits refilled *)
  | Xdom_denied
      (** cross-domain operation denied; the op is in the ring as an
          [xdom_denied_<op>] mark *)
  | Domain_create
  | Domain_enter
  | Domain_destroy
  | Pipe_send  (** word sent over a cross-domain pipe *)
  | Install_code  (** outer-kernel code frames validated and sealed *)
  | Retire_code  (** validated code frames returned to data *)

val counter_name : counter -> string

(** Spans: scoped begin/end pairs.  Each completed span records its
    cycle duration into the histogram keyed by [span_name].  Spans are
    begun and ended through their {!span_id}. *)
type span =
  | Gate_crossing  (** outer-kernel call: entry gate to exit gate *)
  | Gate_enter  (** the entry-gate sequence itself *)
  | Gate_exit  (** the exit-gate sequence itself *)
  | Gate_trap  (** trap-gate (interrupt redirection) overhead *)
  | Vmmu_op of string  (** one vMMU operation, e.g. ["write_pte"] *)
  | Shootdown of string  (** TLB shootdown, by scope: page/span/all/asid *)
  | Wp_write  (** one mediated write through the wp-service *)
  | Syscall_dispatch of string  (** dispatch+handler for one syscall *)

val span_name : span -> string

type span_id
(** A span resolved to a dense id.  Ids come from one process-wide
    registry and stay valid for every tracer, so a call site resolves
    its span once — at module initialisation or boot — and each
    {!span_begin}/{!span_end} after that indexes flat arrays: no
    hashing, no allocation. *)

val span_id : span -> span_id
(** The id of [span]; equal spans share one.  Hashes the span value,
    so it belongs off the hot path. *)

type event =
  | Count of counter
  | Span_begin of span
  | Span_end of span * int  (** duration in cycles *)
  | Mark of string

type record = {
  seq : int;  (** monotonically increasing, survives ring overwrite *)
  cycles : int;  (** simulated cycle stamp *)
  cpu : int;  (** CPU the event was observed on *)
  event : event;
}

(** Summary of one latency histogram.  Percentiles are computed over a
    bounded, deterministically-replaced sample reservoir; count, min,
    max and mean cover every observation. *)
type hist_summary = {
  h_count : int;
  h_min : int;
  h_max : int;
  h_mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
}

type snapshot = {
  events : record list;  (** oldest first *)
  dropped : int;  (** ring-overwritten records *)
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_summary) list;  (** sorted by name *)
}

type t

val create : ?ring_capacity:int -> ?hist_capacity:int -> unit -> t
(** A disabled tracer.  [ring_capacity] bounds the event ring (default
    4096; oldest records are overwritten and counted as dropped);
    [hist_capacity] bounds each histogram's sample reservoir (default
    1024). *)

val set_now : t -> (unit -> int) -> unit
(** Install the cycle source used to stamp records and time spans. *)

val set_cpu : t -> int -> unit
(** Tag subsequent records with this CPU id (cheap; called on
    migration even while disabled). *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val clear : t -> unit
(** Drop all recorded events, counters and histograms (does not change
    the enabled state, CPU tag or cycle source). *)

val count : t -> counter -> unit
(** Bump a counter.  Always live — counters accumulate even while the
    tracer is disabled; only the ring entry is skipped then. *)

val count_n : t -> counter -> int -> unit
val counter_value : t -> counter -> int

type stamp
(** Every counter's value at one instant. *)

val stamp : t -> stamp
(** Copy the counters now; {!since} reads deltas against the copy. *)

val since : t -> stamp -> counter -> int
(** How far [counter] moved since the stamp was taken (an array
    subtraction).  A {!clear} in between makes the delta meaningless. *)

val span_begin : t -> span_id -> unit

val span_end : t -> span_id -> unit
(** Close the innermost open span with the same name begun {e on the
    current CPU} (spans pair per CPU, so interleaved crossings on
    different CPUs time independently); its duration is recorded into
    the histogram keyed by [span_name].  Unmatched ends are ignored. *)

val observe : t -> string -> int -> unit
(** Record one sample into the named histogram directly (for latencies
    measured outside the span mechanism). *)

val mark : t -> string -> unit
(** Drop a named point event into the ring (only while enabled).  A
    call site that builds the name should test {!enabled} first, so an
    untraced run builds no string. *)

val histogram : t -> string -> hist_summary option
val snapshot : t -> snapshot

module Json = Json

val to_json : snapshot -> string
(** Stable JSON rendering of a snapshot, printed compactly through
    {!Json}:
    [{"dropped":..,"counters":{..},"histograms":{..},"events":[..]}]. *)

val summary_to_json : hist_summary -> Json.t
