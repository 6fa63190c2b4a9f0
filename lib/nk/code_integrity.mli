open Nkhw

(** Lifetime kernel code integrity (paper section 3.5).

    Outer-kernel code becomes executable in supervisor mode only after
    the de-privileging scanner has verified it contains no protected
    instruction at any byte offset; validated pages are write-protected
    for life.  Everything else is non-executable by default (NX), and
    SMEP keeps the supervisor out of user pages — so no unvalidated
    byte can ever execute at ring 0. *)

val validate : bytes -> (unit, Nk_error.t) result
(** Scan a code image; [Unvalidated_code] points at the first
    protected-instruction occurrence (aligned or not). *)

val install_code :
  State.t -> frames:Addr.frame list -> bytes -> (unit, Nk_error.t) result
(** Validate [code] and copy it into [frames] (page-sized chunks),
    then {!State.retype} each to validated [Outer_code]: direct-map
    mappings read-only and executable, shielded from DMA.  The outer
    kernel may then map them executable via {!Vmmu.write_pte}.  A
    failed direct-map store aborts, leaving the earlier frames
    installed. *)

val retire_code :
  State.t -> frames:Addr.frame list -> (unit, Nk_error.t) result
(** Module unload: retype the frames back to ordinary outer-kernel
    data (writable, NX).  Only installed code retires: a frame that is
    not validated [Outer_code] (a PTP, a nested-kernel page, protected
    data) is rejected with [Not_declarable] naming it, before anything
    changes.  Also fails if any frame is still mapped outside the
    direct map. *)
