open Nkhw

(** Protected-heap allocator.

    First-fit allocator over the nested kernel's protected data region
    (virtual address range in the kernel direct map whose frames are
    typed [Protected_data] and mapped read-only).  [nk_alloc] draws
    from here; [nk_free] returns blocks to it — freed protected memory
    is retained inside the heap and can only be reused by a future
    [nk_alloc], as the paper's section 2.4 requires. *)

type t

val create : base:Addr.va -> size:int -> t
val alloc : t -> int -> Addr.va option
(** 8-byte aligned blocks; [None] when no block fits — or when an
    attached injector fires [Pheap_exhausted]. *)

val free : t -> Addr.va -> (unit, Nk_error.t) result
(** [Error (Invalid_free va)] if [va] is not the base of a live
    allocation (double free, or a forged base handed up by a
    compromised outer kernel) — rejected, never fatal. *)

val set_inject : t -> Nkinject.t option -> unit

val block_size : t -> Addr.va -> int option
(** Size of the live allocation starting at [va]. *)

val allocated_bytes : t -> int
val free_bytes : t -> int
val contains : t -> Addr.va -> bool
