open Nkhw

(** The outer kernel's interface to translation updates.

    The virtual-memory subsystem is written once against this record;
    plugging in {!native} gives the unprotected baseline (direct PTE
    stores, as stock FreeBSD performs) and {!nested} routes every
    update through the nested kernel's vMMU — exactly the porting
    surface the paper describes (section 3.10: "we replaced all
    instances of writes to PTPs to use the appropriate nested kernel
    API function").

    All operations report {!Nested_kernel.Nk_error.t}; the native
    backend wraps its few self-generated failures in
    [Nk_error.Native], so callers never string-match errors. *)

type t = {
  name : string;
  declare_ptp : level:int -> Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  write_pte :
    ptp:Addr.frame -> index:int -> Pte.t -> (unit, Nested_kernel.Nk_error.t) result;
      (** Update one page-table entry.  There is no VA hint: the
          nested backend derives the shootdown scope of a downgrade
          from the vMMU's reverse maps, and the native backend locates
          the entry in its own page tables (as a real kernel knows the
          VA of its own PTE writes). *)
  write_pte_batch :
    (Addr.frame * int * Pte.t) list -> (unit, Nested_kernel.Nk_error.t) result;
  remove_ptp : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3 : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3_pcid :
    pcid:int -> Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
      (** PCID-tagged switch: skips the TLB flush when the (pcid, root)
          pair was the last one loaded under that tag; falls back to
          [load_cr3] semantics when CR4.PCIDE is clear *)
  root_of_asid : int -> Addr.frame option;
      (** the root each ASID was last bound to — the resolver the
          TLB-coherence oracle needs to audit parked-ASID entries *)
  batched : bool;
      (** whether [write_pte_batch] actually amortizes gate crossings *)
}

val native : Machine.t -> t
(** Unmediated: raw entry stores with normal TLB maintenance costs.  A
    protection downgrade of a live level-1 leaf is followed by the
    targeted single-page flush a stock kernel issues (the VA is
    recovered from the backend's own page tables at zero simulated
    cost); other downgrades broadcast-flush. *)

val nested : Nested_kernel.State.t -> t
(** Every operation crosses the nested-kernel gates. *)

val nested_batched : Nested_kernel.State.t -> t
(** The section-5.4 extension: callers that present batches get a
    single gate crossing per batch. *)

val hypervisor : Machine.t -> t
(** Simulated hypervisor mediation: native semantics, but every MMU
    operation pays the measured VMCALL round trip (Table 3's
    [vmcall]) and counts {!Nktrace.Vmcall} — batch items each pay
    their own exit.  The multi-tenant bench's per-tenant
    full-address-space-worlds baseline. *)

val with_inject : Nkinject.t -> t -> t
(** Wrap any backend so [write_pte] / [write_pte_batch] can fail with
    [Nk_error.Injected] at the injector's [Pte_write_error] /
    [Pte_batch_error] sites.  Control-register loads, declares and
    removes pass through untouched, so a degraded run keeps making
    progress. *)
