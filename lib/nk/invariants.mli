(** Runtime audit of the nested-kernel invariants (paper section 3.2).

    Walks the live machine and nested-kernel state and reports every
    violated invariant.  Used by the test suite (a healthy system
    audits clean; injected corruptions are caught) and available to
    operators as a tripwire. *)

type violation = { invariant : string; detail : string }

val audit : State.t -> violation list
(** Empty when all invariants hold.  Checks, by paper number:
    I1/I5 (active mappings of protected pages are read-only),
    I4 (table links target declared PTPs of the right level),
    I6 (CR3 roots at a declared PML4),
    I7/I8 (CR0.PE/PG/WP set while the outer kernel runs),
    I10 (SMM owned by the nested kernel),
    I12 (IDT write-protected, IDTR pointing at it, vectors routed
    through the trap gate),
    I13 (nested-kernel stack write-protected),
    plus code-integrity state (EFER.NX/LME, CR4.SMEP, no writable+
    executable supervisor page) and IOMMU coverage of every protected
    frame, and consistency of the descriptor reverse maps with the
    hardware page tables.  A CR3 value or entry that names a frame
    outside physical memory is reported (I6, I4, RMAP), never walked
    or indexed. *)

val audit_ok : State.t -> bool
val pp_violation : Format.formatter -> violation -> unit
