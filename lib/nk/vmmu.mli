open Nkhw

(** The virtual MMU: nested-kernel operations (paper Table 2).

    These are the only ways the outer kernel can affect translation
    state.  Each operation crosses the entry gate, validates its
    arguments against the physical-page descriptors, performs the
    update with write protection disabled, restores protection through
    the exit gate, and maintains the TLB-coherence discipline
    (protection downgrades are followed by a shootdown).

    Validation enforces the paper's invariants:
    - I4: non-leaf entries may only point at declared PTPs of the
      correct level; CR3 may only be loaded with a declared PML4;
    - I5 and lifetime code integrity: a leaf is capped at the row of
      the page-protection table of every frame it covers
      ({!Pgdesc.limit}) — mappings of PTPs, nested-kernel and
      protected memory become read-only, validated code read-only,
      unvalidated code and supervisor mappings of data NX;
    - I6/I7/I8: control-register updates cannot clear WP, PG, PE,
      SMEP, NX or LME. *)

val declare_ptp :
  State.t -> level:int -> Addr.frame -> (unit, Nk_error.t) result
(** [nk_declare_PTP]: register a physical page for use as a page-table
    page at the given paging level (4 = PML4).  Write-protects every
    existing mapping to it through {!State.retype} (a failed store
    aborts the declaration), then zeroes the page. *)

val write_pte :
  State.t -> ptp:Addr.frame -> index:int -> Pte.t -> (unit, Nk_error.t) result
(** [nk_write_PTE]: update one page-table entry.  The shootdown scope
    of a protection downgrade is computed from the nested kernel's own
    reverse maps (the positions at which [ptp] is linked into live
    trees) — there is no caller-supplied VA hint, because the outer
    kernel is untrusted and a lying hint could leave a stale
    translation cached.  A downgrade of a level-1 entry costs one page
    shootdown, of a 2 MiB leaf a 512-page span shootdown; unboundable
    scopes fall back to a broadcast flush.  User-half downgrades carry
    an ASID scope (derived from the clean-pair table), so peer CPUs
    that never ran the affected address spaces — and whose parked TLBs
    hold nothing in the range — are skipped instead of IPI'd.  A pure
    4 KiB unmap of an ordinary data frame defers its shootdown to the
    frame's next reuse (see {!flush_deferred_frame}). *)

val write_pte_batch :
  State.t -> (Addr.frame * int * Pte.t) list -> (unit, Nk_error.t) result
(** Batched updates under a single gate crossing — the extension the
    paper's section 5.4 measures (>60% overhead reduction on
    mmap-heavy paths).  Validation is per-entry; the first rejection
    aborts the remainder and returns [Batch_item] carrying the failing
    tuple's index, with every earlier tuple already applied (and none
    after).  Per-entry shootdowns are coalesced: they accumulate
    across the batch and fire once before the gate is left (error
    paths included), with contiguous same-scope spans merged into
    single range shootdowns — counted as {!Nktrace.Shootdown_coalesced}. *)

val flush_deferred_frame : State.t -> Addr.frame -> unit
(** Fire (and retire) any lazy unmap invalidations still pending on
    this frame.  The reuse barrier: kernel boot wires it into the
    outer frame allocator's [on_alloc] hook, and the vMMU calls it
    internally before a frame is re-mapped or declared as a PTP.
    Counted as {!Nktrace.Flush_on_reuse} per pending record; a no-op when
    nothing is queued. *)

val flush_all_deferred : State.t -> unit
(** Drain the whole deferred-invalidation queue (shutdown/audit aid;
    also fired internally when the queue hits its cap). *)

val flush_domain_deferred : State.t -> int -> unit
(** Drain every deferred record one domain's unmaps queued — the
    teardown barrier, so no tenant staleness survives the tenant. *)

val remove_ptp : State.t -> Addr.frame -> (unit, Nk_error.t) result
(** [nk_remove_PTP]: retire a PTP.  All 512 of its entries must be
    clear and no table may still link it; {!State.retype} makes its
    direct-map mapping writable again (a failed store aborts with the
    frame still a shielded PTP). *)

val load_cr0 : State.t -> int -> (unit, Nk_error.t) result
(** Rejected unless PE, PG and WP are all set in the new value (I7/I8). *)

val load_cr3 : State.t -> Addr.frame -> (unit, Nk_error.t) result
(** Switch address spaces; the frame must be a declared PML4 (I6).
    Charges the map/execute/unmap cost of the hidden CR3-writing code
    page (paper section 3.7) plus a full TLB flush, and forgets all
    cached (pcid, root) pairings. *)

val load_cr3_pcid :
  State.t -> pcid:int -> Addr.frame -> (unit, Nk_error.t) result
(** Tagged address-space switch.  The frame must be a declared PML4
    and the PCID within 12 bits.  With CR4.PCIDE set, switching back
    to a (pcid, root) pair that is still bound skips the TLB flush
    entirely; a first use or rebind of the tag pays only an INVPCID
    single-context flush.  Protection downgrades elsewhere in the vMMU
    shoot stale translations out of every ASID, which is what makes
    the no-flush path sound.  Without PCIDE this degrades to
    [load_cr3] semantics. *)

val load_cr4 : State.t -> int -> (unit, Nk_error.t) result
(** Rejected unless SMEP and PAE remain set. *)

val load_efer : State.t -> int -> (unit, Nk_error.t) result
(** Rejected unless NX and LME remain set. *)
