open Nkhw

(** A small recycling pool of address-space identifiers (PCIDs).

    Hardware offers 4095 usable PCIDs but real kernels keep a handful
    live and recycle them, because every slot held widens the set of
    stale translations a shootdown must consider.  The pool hands out
    (asid, stamp) pairs; when all slots are taken it steals one
    round-robin, flushing the stolen ASID's TLB entries so the new
    owner starts clean.  The previous owner notices the steal because
    its stamp no longer validates, and re-allocates on its next
    switch.

    Multi-tenant pools partition the slot range per domain: a tenant's
    allocations (and steals) stay inside its own partition, so a
    recycled tag can never migrate between mutually distrusting
    domains.  An exhausted (or empty) partition fails closed — the
    caller sees [None], mapped to [EAGAIN] — rather than borrowing a
    peer's tag. *)

type t

val kernel_asid : int
(** ASID 0, permanently reserved for the kernel's own root. *)

val create : ?size:int -> ?domains:int -> Machine.t -> t
(** Pool of [size] slots (default 8); slot 0 is the kernel's.  The
    remaining slots are split into [domains] contiguous partitions
    (default 1 — the classic shared pool, byte-identical to the
    unpartitioned behavior); domain [d] draws from partition
    [d mod domains]. *)

val size : t -> int

val partitions : t -> int
(** Number of per-domain partitions (1 = shared pool). *)

val partition_range : t -> domain:int -> (int * int) option
(** Inclusive slot range a domain draws from; [None] if its partition
    is empty (every alloc fails closed). *)

val alloc : ?domain:int -> t -> (int * int) option
(** [(asid, stamp)] from the domain's own partition (default domain 0).
    Steals within the partition (with a per-ASID flush and an
    {!Nktrace.Asid_recycle} count) when no slot there is free; the flush is
    ordered before the pair is returned, hence before the new owner's
    first CR3 load.  [None] — never a peer partition's tag — when the
    domain's partition has no slots. *)

val valid : t -> asid:int -> stamp:int -> bool
(** Whether the pair still owns its slot. *)

val free : t -> asid:int -> stamp:int -> unit
(** Release the slot if the pair still owns it. *)

val set_inject : t -> Nkinject.t option -> unit
(** Attach a fault injector; the [Asid_exhausted] site forces the
    steal path (flush + recycle) even when free slots remain. *)
