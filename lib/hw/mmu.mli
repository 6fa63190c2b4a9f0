(** The physical MMU: permission-checked address translation.

    This module implements the access rules the nested kernel's
    security argument rests on (paper section 3.2):

    - with paging disabled (CR0.PG or CR0.PE clear) virtual addresses
      are interpreted as physical addresses with no protection at all;
    - a supervisor write to a read-only page faults iff CR0.WP is set;
    - a user access to a supervisor page always faults;
    - a user write to a read-only page always faults;
    - instruction fetch from an NX page faults when EFER.NX is set;
    - supervisor instruction fetch from a user page faults when
      CR4.SMEP is set.

    Translations are served from the TLB when present — including stale
    entries whose underlying PTE has since changed, which is faithful to
    hardware and matters for the nested kernel's flush discipline. *)

type ring = Supervisor | User

type ok = {
  pa : Addr.pa;
  tlb_hit : bool;
}

val access :
  Phys_mem.t ->
  Cr.t ->
  Tlb.t ->
  ring:ring ->
  kind:Fault.access_kind ->
  Addr.va ->
  (ok, Fault.t) result
(** Translate and permission-check a 1-byte access at [va].  Record
    wrapper over {!access_fast} for tests and cold callers. *)

val access_fast :
  Phys_mem.t ->
  Cr.t ->
  Tlb.t ->
  ring:ring ->
  kind:Fault.access_kind ->
  Addr.va ->
  fault:Fault.t ref ->
  int
(** Allocation-free translation: returns [(pa lsl 1) lor hit] with
    bit 0 set iff the TLB served the translation, or a negative value
    after storing the fault in [fault].  A steady-state TLB hit
    allocates nothing; only fills that walk the tree and the fault
    paths allocate. *)

val fault_none : Fault.t
(** Inert placeholder for initializing [fault] cells. *)
