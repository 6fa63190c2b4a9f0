open Nkhw

(** First-class tenant domains above the one nested kernel.

    The nested kernel is the only holder of the frame-ownership map,
    the per-domain entry tokens, and the cross-domain pipes.  Domain 0
    is the host/outer-kernel trust anchor: it may touch anything and
    needs no token.  Tenants are mutually distrusting: every mediated
    MMU operation in {!Vmmu} checks the ownership lattice (I14), and
    the only way data crosses tenants is a gate-mediated bounded pipe. *)

val current : State.t -> int
(** Domain mediated operations currently run on behalf of. *)

val denials : State.t -> int -> int
(** Cross-domain rejections attributed to a domain so far. *)

val create : State.t -> (int * int, Nk_error.t) result
(** Host-only: register a new tenant domain.  Returns [(id, token)];
    the token is the entry capability and is handed out exactly once. *)

val enter : State.t -> domain:int -> token:int -> (unit, Nk_error.t) result
(** Switch the current domain.  Entering domain 0 needs no token;
    entering a tenant requires the token [create] returned.  A forged
    token is a counted denial ([Bad_domain]), never an abort. *)

val adopt_tree :
  State.t -> domain:int -> root:Addr.frame -> (unit, Nk_error.t) result
(** Host-only: claim a declared PML4 and every user-half PTP below it
    for a tenant.  Kernel-half links and leaf data frames stay
    host-owned (shared); the tenant claims data frames as it maps
    fresh ones. *)

val destroy : State.t -> domain:int -> (int, Nk_error.t) result
(** Tear a tenant down (host or the domain itself): drains its
    deferred unmaps, dissolves its pipes, clears any leftover owner
    marks, and kills its token.  Returns the number of frames that
    still carried the owner mark — nonzero means the outer kernel
    leaked frames. *)

val pipe_open :
  State.t -> ?cap:int -> src:int -> dst:int -> unit ->
  (unit, Nk_error.t) result
(** Open the (src, dst) pipe (host, or [src] itself). *)

val pipe_send : State.t -> dst:int -> int -> (unit, Nk_error.t) result
(** Send one word from the current domain; [Eagain] when full, a
    counted denial when no such pipe exists. *)

val pipe_recv : State.t -> src:int -> (int option, Nk_error.t) result
(** Receive one word ([None] when empty). *)

val request_shootdown :
  State.t -> Machine.shootdown_scope -> (unit, Nk_error.t) result
(** Propose a TLB shootdown scope.  Host proposals are honored; a
    tenant's [Asids] list that omits an ASID bound to a live peer's
    root (shrinking the flush below cross-domain coherence), or that
    names a peer's ASID, is a counted [Cross_domain] denial and
    flushes nothing. *)

val frame_released : State.t -> Addr.frame -> unit
(** Owner-release hook for the outer frame allocator's on-free path:
    clears the freed frame's owner mark.  One integer compare when the
    frame is host-owned. *)
