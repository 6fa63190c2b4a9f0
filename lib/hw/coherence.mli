(** Differential TLB-coherence oracle.

    An independent reference translator walks the live page tables
    with no caching, and every cached TLB entry — on the active CPU
    and on every parked peer — is cross-checked against it.  Flagged
    are only the entries that are stale {e and more permissive} than
    the tree: writable/user/executable where the walk says otherwise,
    a different frame, or a translation for a VA the tree no longer
    maps.  Stale-but-less-permissive entries only cause spurious
    faults (which the software must tolerate anyway, as on hardware)
    and are not violations; the global bit affects flush behaviour
    only and is not compared.

    Installed via {!enable}, the oracle fires from the hooks in
    {!Machine}: a targeted O(1) check after every MMU access, and a
    full audit after every flush/shootdown, at [Smp.activate], and at
    nested-kernel gate exit.  With no oracle installed those hooks are
    a single [match] — the oracle-off overhead is zero. *)

type walk = {
  w_frame : Addr.frame;
  w_writable : bool;
  w_user : bool;
  w_nx : bool;
  w_global : bool;
}

type violation = {
  v_cpu : int;
      (** id of the CPU whose TLB holds the entry, active or parked
          ([-1] for a peer {!Smp} did not register) *)
  v_asid : int option;  (** [None] for a global entry *)
  v_vpage : int;
  v_cached : Tlb.entry;  (** what the TLB would serve *)
  v_walked : walk option;  (** what the tree actually says *)
  v_why : string;
  v_op : string;  (** the operation after which the check fired *)
}

exception Violation of violation list

val reference_translate :
  Phys_mem.t -> root:Addr.frame -> Addr.va -> walk option
(** Uncached walk from [root]; shares no code with {!Page_table.walk}.
    [None] when unmapped (or the walk leaves physical memory). *)

val check_machine :
  ?root_of_asid:(int -> Addr.frame option) ->
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?op:string ->
  Machine.t ->
  violation list
(** Audit every live entry of the active and peer TLBs.  Entries under
    the active ASID (and globals) are checked against the CR3 root;
    other ASIDs are resolved via [root_of_asid] and skipped when it
    returns [None] — an unresolvable ASID is unreachable, since
    rebinding a PCID flushes it first.  [deferred] exempts entries the
    nested kernel has a pending lazy invalidation for (it guarantees
    the flush fires before the frame is reused); the predicate should
    match as narrowly as the queue entry — vpage {e and} cached frame.
    Returns all violations found (never raises). *)

val check_va :
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?op:string ->
  Machine.t ->
  Addr.va ->
  violation list
(** Targeted check of the cached translation covering [va] on the
    active CPU, against the CR3 root.  O(1). *)

val enable :
  ?root_of_asid:(int -> Addr.frame option) ->
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?on_violation:(violation list -> unit) ->
  Machine.t ->
  unit
(** Install the oracle on [m]'s hooks.  Checks are suppressed while
    [m.in_nested_kernel] is set — mid-gate, a PTE write and its
    shootdown are two steps with a legitimately incoherent window
    between them; the gate exit fires a full audit instead.
    [deferred] exempts declared lazy-invalidation entries (see
    {!check_machine}).  On a violation, calls [on_violation] if given,
    otherwise raises {!Violation}. *)

val disable : Machine.t -> unit

val pp_violation : Format.formatter -> violation -> unit
