(** Page-table entries.

    A PTE is a plain [int] with an x86-64-like layout:

    {v
      bit 0   P    present
      bit 1   RW   writable
      bit 2   US   user-accessible
      bit 5   A    accessed
      bit 6   D    dirty
      bit 7   PS   page size (large page, at PD/PDPT level)
      bit 8   G    global
      12..47  frame number
      bit 62  NX   no-execute
    v}

    The one deliberate deviation from silicon is NX at bit 62 rather
    than 63 so that every PTE fits a non-negative OCaml [int]. *)

type t = int

val empty : t
(** The all-zero (non-present) entry. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  large : bool;
  global : bool;
  nx : bool;
}

val no_flags : flags
(** All flags clear. *)

val kernel_rw : flags
(** Present, writable, supervisor-only, executable. *)

val kernel_ro : flags
val kernel_rx : flags
val kernel_ro_nx : flags
val kernel_rw_nx : flags
val user_rw_nx : flags
val user_rx : flags
val user_ro_nx : flags

val make : frame:Addr.frame -> flags -> t
val frame : t -> Addr.frame
val flags : t -> flags

val is_present : t -> bool
val is_writable : t -> bool
val is_user : t -> bool
val is_large : t -> bool
val is_global : t -> bool
val is_nx : t -> bool

(** Raw layout constants, for code that works on packed words directly
    (the TLB's flat table reuses this layout for cached entries). *)

val bit_p : int
val bit_rw : int
val bit_us : int
val bit_g : int
val bit_nx : int
val frame_mask : int

val with_flags : t -> flags -> t
val set_writable : t -> bool -> t
val set_present : t -> bool -> t
val set_nx : t -> bool -> t
val set_global : t -> bool -> t
val set_accessed : t -> t
val set_dirty : t -> t
