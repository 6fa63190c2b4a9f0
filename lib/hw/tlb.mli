(** Translation lookaside buffer.

    Caches (ASID, virtual page) -> translation with the permissions
    that were in force when the walk was performed.  This matters for
    security fidelity: a mapping change without a TLB shootdown leaves
    a stale entry that the MMU will happily keep using — exactly the
    hazard the nested kernel must handle by flushing after protection
    downgrades.

    Entries are tagged with the address-space identifier (the PCID on
    x86 with CR4.PCIDE) active when they were filled; global entries
    are shared across all ASIDs and survive [flush_all].  Full, ASID
    and global flushes are O(1) generation bumps; stale slots are
    reclaimed lazily.  INVLPG and span flushes remove entries of every
    ASID, which costs a scan of the occupied slots — unless the
    occupancy index (per-vpage-bucket counts of occupied non-global
    slots) shows that no slot can hold the range, in which case they
    cost one global-table lookup per page.

    The store is an open-addressed flat [int array] table — keys are
    [asid lsl 36 lor vpage], cached translations single words in the
    {!Pte} bit layout — so the hot lookup/insert pair allocates
    nothing.  The [entry]-record API below is a convenience wrapper
    over the packed one for tests and checkers. *)

type entry = {
  frame : Addr.frame;
  writable : bool;
  user : bool;
  nx : bool;
  global : bool;
}

type t

val create : ?epoch_limit:int -> unit -> t
(** [epoch_limit] bounds the epoch / generation counters before they
    wrap (physically purging what they guarded, so equality tagging
    stays sound).  Default [max_int]; tests bound it low to exercise
    the wraparound path. *)

val lookup : t -> asid:int -> vpage:int -> entry option
(** Hit only on a live entry tagged [asid] or a live global entry. *)

val peek : t -> asid:int -> vpage:int -> entry option
(** Like {!lookup} but with no side effects whatsoever: no hit/miss
    accounting, no lazy slot reclamation.  For checkers (the coherence
    oracle) that must observe the TLB without perturbing it. *)

val iter_live : t -> f:(asid:int option -> vpage:int -> entry -> unit) -> unit
(** Visit every live cached translation; global entries are reported
    with [asid = None] (they hit under every ASID). *)

val insert : t -> asid:int -> vpage:int -> entry -> unit
(** Fill under the given ASID; entries with [global = true] go to the
    shared global set instead. *)

(** {2 Packed fast path}

    The allocation-free interface the MMU runs on.  A packed entry is
    one word in the {!Pte} bit layout (P always set, RW/US/G permission
    bits, NX in bit 62, frame in bits 12..47); [miss] (= 0) is never a
    valid entry because P is always set. *)

val miss : int

val lookup_packed : t -> asid:int -> vpage:int -> int
(** {!lookup}, returning the packed entry or [miss].  Same hit/miss
    accounting and lazy reclamation as {!lookup}. *)

val peek_packed : t -> asid:int -> vpage:int -> int
(** {!peek}, returning the packed entry or [miss]. *)

val insert_packed : t -> asid:int -> vpage:int -> int -> unit

val iter_live_packed : t -> f:(asid:int -> vpage:int -> int -> unit) -> unit
(** {!iter_live} without the record boxing; global entries are
    reported with [asid = -1]. *)

val pack_entry :
  frame:Addr.frame ->
  writable:bool ->
  user:bool ->
  nx:bool ->
  global:bool ->
  int

val pack : entry -> int
val unpack : int -> entry
val packed_frame : int -> Addr.frame
val packed_writable : int -> bool
val packed_user : int -> bool
val packed_nx : int -> bool
val packed_global : int -> bool

(** {2 Flushes} *)

val flush_all : t -> unit
(** Full flush, as a CR3 reload performs: invalidates every non-global
    entry in every ASID.  O(1). *)

val flush_asid : t -> asid:int -> unit
(** INVPCID single-context: invalidate one ASID's non-global entries.
    O(1). *)

val flush_global_too : t -> unit
(** Everything including globals — the CR4.PGE-toggle style flush a
    shootdown of kernel mappings needs.  O(1). *)

val flush_page : t -> vpage:int -> unit
(** INVLPG: invalidate the page in every ASID and in the global set.
    O(occupied slots), or O(1) when the occupancy index rules the page
    out. *)

val flush_span : t -> vpage:int -> count:int -> unit
(** Invalidate [count] consecutive pages starting at [vpage], in every
    ASID and in the global set — the range shootdown a protection
    downgrade of a 2 MiB leaf needs, since its 512 constituent 4 KiB
    translations are cached individually.  O([count] + occupied slots),
    or O([count]) when the occupancy index rules the span out. *)

val holds_span : t -> vpage:int -> count:int -> bool
(** Does any live entry (any ASID, globals included) cover a page in
    [vpage .. vpage + count - 1]?  Side-effect-free, charges nothing:
    shootdown targeting uses it as the parked-TLB occupancy backstop,
    so filtering can never skip a CPU that still caches the span.
    One global-table lookup per page, plus a scan of the occupied
    slots (stopping at the first live hit) only when the occupancy
    index cannot rule the span out.  The index is exact, so the
    answer never depends on it. *)

val holds_asid : t -> asid:int -> bool
(** Does any live non-global entry exist under [asid]?  Side-effect-free
    occupancy probe for ASID-scoped shootdowns; scans the occupied
    slots and stops at the first live hit. *)

val hits : t -> int
val misses : t -> int
val record_miss : t -> unit

val inserts : t -> int
(** Monotone count of fills; together with {!flushes} it stamps the
    TLB's mutation history — unchanged counts mean unchanged content
    (lazy tombstone reclamation never changes the live set). *)

val flushes : t -> int
(** Monotone count of flush operations of any scope. *)

val size : t -> int
(** Number of live entries (all ASIDs plus globals). *)
