(** The hardware page-table walker.

    Walks the 4-level radix tree rooted at a PML4 frame, exactly as the
    MMU's table walker does, computing the {e effective} permissions of
    a translation: writable only if every level is writable,
    user-accessible only if every level is user-accessible, no-execute
    if any level sets NX — the x86-64 combination rules. *)

type walk = {
  frame : Addr.frame;  (** leaf physical frame *)
  writable : bool;
  user : bool;
  nx : bool;
  global : bool;  (** G bit of the leaf entry: survives CR3 reloads *)
  level : int;  (** level of the leaf entry: 1 = 4K page, 2 = 2M page *)
  leaf_ptp : Addr.frame;  (** PTP holding the leaf entry *)
  leaf_index : int;
}

type result = Mapped of walk | Not_mapped of { level : int }

val entry_pa : ptp:Addr.frame -> index:int -> Addr.pa
(** Physical address of entry [index] of the page-table page [ptp]. *)

val get_entry : Phys_mem.t -> ptp:Addr.frame -> index:int -> Pte.t
val set_entry : Phys_mem.t -> ptp:Addr.frame -> index:int -> Pte.t -> unit
(** Raw entry access with no mediation — used by the hardware model,
    the nested kernel's internals, and the native (unprotected)
    baseline. *)

val walk : Phys_mem.t -> root:Addr.frame -> Addr.va -> result
(** Walk the tree for [va].  Large (2 MiB) pages terminate the walk at
    level 2 with [PS] set.  A table outside physical memory ends the
    walk as [Not_mapped] at its level, as the coherence oracle's
    reference walker treats it. *)

val translate : Phys_mem.t -> root:Addr.frame -> Addr.va -> Addr.pa option
(** Physical address for [va], ignoring permissions. *)

val iter_tree :
  Phys_mem.t ->
  root:Addr.frame ->
  (ptp:Addr.frame -> index:int -> level:int -> Pte.t -> unit) ->
  unit
(** Visit every present entry of the translation tree rooted at [root]
    (both halves, all levels), guarding against cycles.  A table
    outside physical memory is not walked: a root outside it visits
    nothing, and an entry linking such a table is passed to the
    callback without descending into it. *)

val iter_user_leaves :
  Phys_mem.t ->
  root:Addr.frame ->
  (va:Addr.va -> ptp:Addr.frame -> index:int -> Pte.t -> unit) ->
  unit
(** Iterate over all present leaf entries in the user half of the
    address space (PML4 slots 0..255). *)
