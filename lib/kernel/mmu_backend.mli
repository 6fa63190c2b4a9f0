open Nkhw

(** The outer kernel's interface to translation updates.

    The virtual-memory subsystem is written once against this record;
    plugging in {!native} gives the unprotected baseline (direct PTE
    stores, as stock FreeBSD performs) and {!nested} routes every
    update through the nested kernel's vMMU — exactly the porting
    surface the paper describes (section 3.10: "we replaced all
    instances of writes to PTPs to use the appropriate nested kernel
    API function").  Whether one VM operation's PTE updates go one by
    one or as a single batch is decided here too, by {!stage}, so the
    caller has one code path for every backend.

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
          from the vMMU's reverse maps, and the native backend from
          the table links its own writes recorded (as a real kernel
          knows the VA of its own PTE writes), never from a search of
          its page tables. *)
  write_pte_batch :
    (Addr.frame * int * Pte.t) list -> (unit, Nested_kernel.Nk_error.t) result;
      (** Apply the tuples in order.  A rejected tuple stops the batch
          with [Batch_item { index }], leaving the tuples before it
          applied — the vMMU's contract, which every backend keeps; any
          other error means no tuple was applied. *)
  remove_ptp : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3 : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3_pcid :
    pcid:int -> Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
      (** PCID-tagged switch: skips the TLB flush when the (pcid, root)
          pair was the last one loaded under that tag; falls back to
          [load_cr3] semantics when CR4.PCIDE is clear *)
  batched : bool;
      (** whether [write_pte_batch] actually amortizes gate crossings;
          only {!stage} reads it *)
}

val native : Machine.t -> t
(** Unmediated: raw entry stores with normal TLB maintenance costs.
    Like a stock pmap, the backend knows each table's declared level
    (until [remove_ptp]) and the entry that last linked it.  A
    protection downgrade in a level-1 table whose links climb, one
    declared level at a time, to a declared root gets the targeted
    single-page flush at the VA the climb adds up, scoped to the tags
    bound to that root, at zero simulated cost; every other downgrade
    broadcast-flushes. *)

val nested : batched:bool -> Nested_kernel.State.t -> t
(** Every operation crosses the nested-kernel gates.  With [~batched],
    the section-5.4 extension: a batch takes a single gate crossing;
    without, [write_pte_batch] is one crossing per tuple. *)

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

(** {1 Stages}

    A stage holds the PTE updates of one VM operation: the caller
    pushes each update where it would write it and commits once. *)

type stage

val stage : t -> stage
(** An empty stage over a backend. *)

val push :
  stage -> ptp:Addr.frame -> index:int -> Pte.t ->
  (unit, Nested_kernel.Nk_error.t) result
(** [write_pte] at once on a non-batching backend; on a batching one,
    queue the update and return [Ok ()]. *)

val commit : stage -> (unit, Nested_kernel.Nk_error.t) result
(** Nothing on a non-batching backend.  On a batching one, issue the
    queue as one [write_pte_batch] — an empty queue included, which
    still crosses the gate once. *)

val unwritten : stage -> (Addr.frame * int * Pte.t) list
(** The pushed updates the page tables do not hold, in push order:
    none on a non-batching backend (a failed [push] reports itself);
    on a batching one, the whole queue before [commit], the suffix
    from [index] after a commit failed with [Batch_item { index }], and
    the whole queue after any other commit error. *)
