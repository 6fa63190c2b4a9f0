open Nkhw

(** Secure boot and nested-kernel initialization (paper section 3.3).

    Runs before any outer-kernel code: builds the initial page tables
    (kernel direct map), installs the gate code and the IDT, assigns a
    security type to every physical page, write-protects everything
    the nested kernel owns, arms the IOMMU and SMM ownership, and
    finally enables long-mode paging with WP set — establishing
    Invariants I3 and I7 before the outer kernel can execute. *)

type boot_layout = {
  gate_frames : int;
  stack_frames : int;
  idt_frames : int;
  heap_frames : int;  (** protected heap for [nk_alloc] *)
  ptp_pool_frames : int;  (** boot page-table pages *)
}

val boot : ?layout:boot_layout -> Machine.t -> (State.t, string) result
(** Initialize the nested kernel on a fresh machine.  On return the
    machine runs in long mode with WP enforced and the outer kernel
    may begin executing (all further MMU changes must go through
    {!Vmmu}). *)

val outer_first_frame : State.t -> Addr.frame
(** First physical frame not owned by the nested kernel: the start of
    the outer kernel's allocatable pool. *)
