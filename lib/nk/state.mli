open Nkhw

(** Nested-kernel state: everything the trusted domain owns.

    One value of this type exists per machine after {!Init.boot}; the
    outer kernel holds a reference but can only act on it through the
    mediated operations in {!Vmmu} and {!Wp_service} — every mutation
    of protected physical state happens between a gate entry and a gate
    exit with the nested-kernel stack lock held. *)

type wd = {
  wd_id : int;
  wd_base : Addr.va;  (** first byte of the protected region *)
  wd_size : int;
  wd_policy : Policy.t;
  mutable wd_active : bool;
  wd_from_heap : bool;  (** allocated by [nk_alloc] (vs declared) *)
}
(** A write descriptor (paper Table 1). *)

type pending_flush = {
  pf_frame : Addr.frame;  (** the frame the unmapped leaf pointed at *)
  pf_slot : Addr.frame * int;  (** (ptp, index) the unmap went through *)
  pf_scope : Machine.shootdown_scope;
      (** scope the eventual flush must use, fixed at defer time *)
  pf_spans : (int * int) list;
      (** (vpage, count) ranges possibly still cached *)
  pf_domain : int;
      (** domain the deferring unmap ran under; domain teardown drains
          its records so no tenant staleness survives the tenant *)
}
(** One lazily-invalidated unmap: PTE gone from the tree, shootdown
    queued for the frame's next reuse instead of issued eagerly. *)

type domain = {
  dom_id : int;
  dom_token : int;  (** entry capability, handed out once at create *)
  mutable dom_live : bool;
  mutable dom_denials : int;
      (** cross-domain rejections attributed to this domain *)
  mutable dom_policies : string list option;
      (** write-protection policies it may declare; [None] = any *)
}
(** A tenant domain above the one nested kernel; domain 0 is the host
    and is never registered. *)

type pipe = {
  pipe_src : int;
  pipe_dst : int;
  pipe_buf : int Queue.t;
  pipe_cap : int;
}
(** A gate-mediated bounded word pipe — the only inter-tenant channel. *)

type t = {
  machine : Machine.t;
  gate : Gate.t;
  descs : Pgdesc.t;
  heap : Pheap.t;
  root_pml4 : Addr.frame;
  idt_va : Addr.va;
  nk_first_frame : Addr.frame;
  nk_frame_count : int;
  write_descriptors : (int, wd) Hashtbl.t;
  pcid_roots : (int, Addr.frame) Hashtbl.t;
      (** last root loaded under each PCID; a tagged switch back to the
          same (pcid, root) pair needs no TLB flush *)
  deferred_frames : (Addr.frame, pending_flush list) Hashtbl.t;
      (** frame -> its pending lazy invalidations ({!Vmmu} maintains
          this; flushed before the frame can be reused) *)
  deferred_slots : (Addr.frame * int, Addr.frame) Hashtbl.t;
      (** (ptp, index) -> unmapped frame, so re-installing a leaf
          through the same slot triggers the pending flush *)
  mutable deferred_count : int;  (** live [pending_flush] records *)
  mutable next_wd_id : int;
  mutable lock_held : bool;
  mutable denied_writes : int;
      (** mediation rejections observed (diagnostics) *)
  sc_roots : int array;
  sc_bases : int array;
      (** scratch for {!Vmmu}'s shootdown scope derivation (reachable
          (root, base-vpage) pairs, bound 8), refilled in place per
          downgrade; gate-serialized so one per State suffices *)
  domains : (int, domain) Hashtbl.t;
  pipes : (int * int, pipe) Hashtbl.t;  (** (src, dst) -> pipe *)
  mutable next_domain : int;
  mutable cur_domain : int;
      (** domain the outer kernel currently runs on behalf of *)
}

val is_nk_frame : t -> Addr.frame -> bool
(** Frame inside the nested kernel's reserved physical range. *)

val token_of_id : int -> int
(** Deterministic entry token for a domain id. *)

val find_domain : t -> int -> domain option
val domain_live : t -> int -> bool

val owner_ok : t -> int -> bool
(** The ownership lattice: the host (domain 0) may touch any frame,
    host-owned frames are usable by every domain, and a tenant may
    otherwise only touch frames it owns. *)

val count_denial : ?op:string -> t -> unit
(** Record a cross-domain rejection against the current domain: its
    [dom_denials], the {!Nktrace.Xdom_denied} counter and, while
    tracing, an [xdom_denied_<op>] ring mark naming the operation. *)

val with_gate :
  t -> (unit -> ('a, Nk_error.t) result) -> ('a, Nk_error.t) result
(** Run a nested-kernel operation body between an entry-gate and
    exit-gate crossing, holding the nested-kernel stack lock.  Fails
    with [Reentrant_call] if the lock is already held and
    [Gate_failure] if a crossing does not complete. *)

val is_deferred : t -> vpage:int -> Tlb.entry -> bool
(** Is this cached translation one of the declared, tolerated stale
    entries — the cached frame matches a pending lazy invalidation and
    the vpage falls inside one of its spans?  The coherence oracle's
    [deferred] exemption; O(1) when the queue is empty. *)

val deferred_live : t -> int
(** Number of pending lazy-invalidation records. *)

val register_wd : t -> wd -> unit
val find_wd : t -> int -> wd option

val entry_va_of_pte : ptp:Addr.frame -> index:int -> Addr.va
(** Kernel direct-map virtual address of a page-table entry; nested
    kernel internals write PTEs through this mapping. *)
