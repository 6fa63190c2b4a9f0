(** Cycle-cost model for the simulated machine.

    Calibrated against the paper's Table 3, measured on an Intel
    i7-3770 at 3.4 GHz: a null nested-kernel call takes 0.139 us
    (~473 cycles), a null syscall 0.0876 us (~298 cycles), and a null
    VMCALL round trip 0.513 us (~1744 cycles).  The nested-kernel gate
    cost is not charged as a lump: it emerges from per-instruction
    costs of the actual entry/exit gate instruction streams, with
    control-register writes carrying their serializing penalty. *)

type t = {
  simple_insn : int;  (** register-to-register ALU op, jump, nop *)
  mem_insn : int;  (** load/store through the MMU, TLB hit *)
  pushf_popf : int;
  cli_sti : int;
  cr_read : int;
  cr_write : int;  (** serializing mov-to-CR *)
  wrmsr : int;
  tlb_miss_walk : int;  (** extra cycles for a 4-level table walk *)
  invlpg : int;
  invpcid : int;  (** single-context (per-PCID) TLB invalidation *)
  tlb_flush_full : int;
  ipi_shootdown : int;  (** cross-CPU TLB shootdown, per remote CPU *)
  syscall_roundtrip : int;  (** SYSCALL + SYSRET + entry/exit glue *)
  vmcall_roundtrip : int;  (** VM exit + VMM dispatch + VM entry *)
  trap_roundtrip : int;  (** exception delivery + IRET *)
  page_zero : int;  (** zero one 4 KiB frame *)
  page_copy : int;  (** copy one 4 KiB frame *)
  byte_copy_x8 : int;  (** copy 8 bytes in a bulk copy loop *)
  call_ret : int;
  ctx_switch : int;
      (** scheduler context-switch overhead beyond the CR3 reload:
          register save/restore, kernel-stack swap, run-queue
          bookkeeping.  Charged once per actual switch, never on
          self-switch *)
  sock_dma_setup : int;
      (** post one NIC descriptor (send or receive) and reap its
          completion: the per-block DMA cost of the socket path *)
  nic_irq : int;
      (** one coalesced NIC interrupt: delivery plus softirq-style
          demux into the socket buffers *)
}

val default : t
(** The calibrated model (3.4 GHz reference clock). *)

val cycles_to_us : int -> float
val cycles_to_s : int -> float
