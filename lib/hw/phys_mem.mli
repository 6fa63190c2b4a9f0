(** Physical memory: an array of 4 KiB page frames.

    All accessors take raw physical addresses and perform no permission
    checking — this is DRAM, not the MMU.  Every accessor but
    {!read_table_word} raises [Invalid_argument] naming [Phys_mem] on
    an address outside memory.  Multi-byte accesses may cross page
    boundaries.  Words are stored little-endian; the machine's word
    values always fit in 62 bits, so reads return non-negative ints.
    Host memory is taken only for what the run stores into. *)

type t

val create : frames:int -> t
(** [create ~frames] makes a memory of [frames] zero-filled pages. *)

val num_frames : t -> int
val size_bytes : t -> int

val read_u8 : t -> Addr.pa -> int
val write_u8 : t -> Addr.pa -> int -> unit

val read_u64 : t -> Addr.pa -> int
(** Read 8 little-endian bytes as an OCaml int (bit 63 discarded). *)

val read_table_word : t -> frame:Addr.frame -> index:int -> int
(** Unchecked aligned word read of table entry [index] (< 512) of page
    [frame], for the page-table walkers.  The caller must have
    validated [frame] with {!valid_frame}; same result as {!read_u64}
    of the entry's address. *)

val writes : t -> int
(** Monotone count of stores of any width — a cheap mutation stamp: if
    it is unchanged, no byte of memory (hence no PTE) has changed. *)

val write_u64 : t -> Addr.pa -> int -> unit

val read_u64_split : t -> Addr.pa -> hi:Addr.pa -> int
(** [read_u64_split t pa ~hi] reads a page-straddling word whose bytes
    past [pa]'s page boundary start at [hi] instead of the next
    physical page: the word a virtual access spanning two pages that
    map unrelated frames sees.  [pa] must lie within the last 7 bytes
    of its page; the value is encoded as a straddling {!read_u64}'s. *)

val write_u64_split : t -> Addr.pa -> hi:Addr.pa -> int -> unit
(** The store counterpart of {!read_u64_split}. *)

val read_bytes : t -> Addr.pa -> int -> bytes
val write_bytes : t -> Addr.pa -> bytes -> unit
val blit_to_bytes : t -> Addr.pa -> bytes -> int -> int -> unit
val blit_from_bytes : bytes -> int -> t -> Addr.pa -> int -> unit

val zero_frame : t -> Addr.frame -> unit
val frame_copy : t -> src:Addr.frame -> dst:Addr.frame -> unit

val untouched : t -> Addr.frame -> bool
(** [untouched t f]: no store has written a byte of frame [f], which
    therefore reads all zeros.  Zeroing an untouched frame, or copying
    an untouched frame onto it, keeps it untouched; any other store
    into it, of zeros included, does not, and zeroing a written frame
    does not make it untouched again.  Raises [Invalid_argument] for a
    frame outside memory. *)

val valid_pa : t -> Addr.pa -> bool
val valid_frame : t -> Addr.frame -> bool
