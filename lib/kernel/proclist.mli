open Nkhw

(** The [allproc] process list, held in {e simulated} kernel memory.

    Each node is a doubly-linked record of raw words (pid, next, prev,
    state) living in ordinary outer-kernel data pages — which is
    precisely why rootkits can unlink a node with two pointer stores
    (DKOM, paper section 4.1.3).  Traversal reads kernel memory
    through the MMU like real kernel code would. *)

type t

val create : Machine.t -> Kalloc.t -> head_va:Addr.va -> t
(** Initialize an empty list whose head pointer lives at [head_va]. *)

val head_va : t -> Addr.va

val insert : t -> Ktypes.pid -> (Addr.va, Ktypes.errno) result
(** Allocate and link a node at the list head; returns the node's
    kernel virtual address. *)

val set_state : t -> node:Addr.va -> int -> (unit, Ktypes.errno) result

val remove : t -> node:Addr.va -> (unit, Ktypes.errno) result
(** Unlink and free the node — ordinary pointer surgery, exactly the
    writes a rootkit performs (minus the free). *)

val unlink_raw : Machine.t -> head_va:Addr.va -> node:Addr.va -> (unit, Fault.t) result
(** The rootkit primitive: unlink a node with direct stores, no
    allocator bookkeeping.  Exposed for the attack library. *)

val pids : t -> (Ktypes.pid * int) list
(** Traverse the list: [(pid, state)] pairs, head first.  Raises
    [Fault.Hardware] only if kernel memory is unreadable. *)

val find : t -> Ktypes.pid -> Addr.va option
