(** Per-process file-descriptor table.

    POSIX demands that every allocation returns the {e lowest} free
    descriptor number.  A naive implementation rescans from zero and
    costs O(n) per open — quadratic over a server's lifetime once the
    table holds 100k live descriptors.  This table keeps a two-level
    occupancy bitmap over the slot array (level 1: one bit per slot;
    level 2: one bit per {e full} level-1 word), so lowest-free
    allocation, lookup and close all cost a handful of word operations
    regardless of table size.

    The table is generic in its slot payload so it can be exercised
    standalone in tests; the kernel instantiates it at [Fdesc.t]. *)

type 'a t

val create : ?base:int -> ?limit:int -> unit -> 'a t
(** Descriptors are numbered [base], [base+1], ... (default base 3,
    leaving stdio numbers unused, matching the historical allocator);
    [limit] bounds the number of live slots (default 2^20). *)

val alloc : 'a t -> 'a -> (int, Ktypes.errno) result
(** Store [v] in the lowest free slot and return its descriptor
    number; [Emfile] when the table is at its limit. *)

val get : 'a t -> int -> 'a option

val remove : 'a t -> int -> 'a option
(** Free the slot and return what it held. *)

val count : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val clear : 'a t -> unit
(** Empty the table without touching the payloads. *)
