open Nkhw

(** The intra-kernel write-protection service (paper Table 1,
    sections 2.4 and 3.8).

    Clients obtain a {e write descriptor} for a region of protected
    memory — either by declaring existing kernel memory
    ([nk_declare]) or by allocating from the nested kernel's protected
    heap ([nk_alloc]) — and thereafter modify the region exclusively
    through [nk_write], which bounds-checks the write and consults the
    descriptor's mediation policy before copying a byte.  All mappings
    to the region's pages are read-only, so any store that bypasses
    [nk_write] takes a protection fault. *)

val declare :
  State.t ->
  base:Addr.va ->
  size:int ->
  Policy.t ->
  (State.wd, Nk_error.t) result
(** [nk_declare]: protect [size] bytes of existing kernel memory at
    [base].  Every page overlapping the region is retyped
    [Protected_data] through {!State.retype}: all its mappings are
    downgraded to read-only, and its frame is shielded from DMA.  A
    failed direct-map store aborts with no descriptor, leaving the
    earlier pages protected.  The paper's separate
    protected ELF section corresponds to calling this on
    dedicated pages (section 3.8); byte-granularity policies make
    co-located unprotected data workable but trap-prone. *)

val alloc :
  State.t -> size:int -> Policy.t -> (State.wd * Addr.va, Nk_error.t) result
(** [nk_alloc]: allocate [size] bytes from the protected heap and
    return the descriptor and region address. *)

val free : State.t -> State.wd -> (unit, Nk_error.t) result
(** [nk_free]: deactivate the descriptor.  Heap blocks are retained in
    protected memory for reuse by future [alloc]s only; a freed region
    never becomes writable to the outer kernel (defeats
    free-then-overwrite exploits, section 2.4). *)

val write :
  State.t -> State.wd -> dest:Addr.va -> bytes -> (unit, Nk_error.t) result
(** [nk_write]: mediated write of [bytes] at [dest].  Verifies
    [dest, dest+len) lies within the descriptor's region, invokes the
    mediation policy, and performs the copy inside the gates. *)

val read : State.t -> State.wd -> src:Addr.va -> len:int -> (bytes, Nk_error.t) result
(** Convenience read of protected data (reads never require
    mediation: the region is readable through its normal mapping). *)

val emulate_colocated_write :
  State.t -> dest:Addr.va -> bytes -> (unit, Nk_error.t) result
(** The protection-granularity-gap path (paper section 3.8): a store
    to {e unprotected} data that happens to share a page with protected
    data takes a protection fault; the fault handler forwards it here
    and the nested kernel emulates it — after verifying the bytes do
    not overlap any active write descriptor (those must go through
    [nk_write]).  Charges the trap cost plus a gate crossing, which is
    exactly why the paper moves protected statics to dedicated pages
    instead. *)
