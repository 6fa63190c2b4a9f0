open Nkhw

(** Physical-page descriptors.

    The nested kernel keeps one descriptor per physical frame recording
    the kind of data stored in it, the number of active mappings, and a
    reverse-mapping list of every page-table entry that maps it (paper
    section 3.4).  The reverse map is what lets [nk_declare] and
    [declare_PTP] write-protect {e all existing} mappings to a page. *)

type page_type =
  | Unused  (** free RAM, no security type yet *)
  | Ptp of int  (** page-table page at paging level 1..4 *)
  | Nk_code
  | Nk_data
  | Nk_stack
  | Outer_code  (** validated, write-protected kernel code *)
  | Outer_data
  | User
  | Protected_data  (** write-protection-service client data *)

type mapping_kind =
  | Data_map  (** a leaf PTE mapping the page as data/code *)
  | Table_link  (** a non-leaf entry linking the page as a child PTP *)

type mapping = { ptp : Addr.frame; index : int; kind : mapping_kind }
(** One page-table entry referencing the page. *)

type t
(** One flat store per field (type, owner, validated bit, reverse
    map), indexed by frame.  Every accessor raises [Invalid_argument]
    on a frame outside [0, frames). *)

val create : frames:int -> t
(** Every frame [Unused], owned by domain 0, unvalidated, unmapped. *)

val frames : t -> int
val page_type : t -> Addr.frame -> page_type
val set_type : t -> Addr.frame -> page_type -> unit

val owner : t -> Addr.frame -> int
(** Owning domain of the frame (0 = host/shared). *)

val set_owner : t -> Addr.frame -> int -> unit
val set_validated : t -> Addr.frame -> bool -> unit

val is_validated : t -> Addr.frame -> bool
(** Scanned free of protected instructions. *)

val add_mapping : t -> Addr.frame -> mapping -> unit
(** Record an entry referencing the frame.  Its [index] must be below
    512, as {!Page_table.entry_pa} enforces for every written entry. *)

val remove_mapping : t -> Addr.frame -> mapping -> unit
(** Drop the newest recorded entry equal to the mapping, if any. *)

val mappings : t -> Addr.frame -> mapping list
(** Every recorded entry referencing the frame, newest first. *)

val has_mapping : t -> Addr.frame -> mapping -> bool
(** [List.mem m (mappings t f)], without building the list. *)

val reference_count : t -> Addr.frame -> int

val table_links : t -> Addr.frame -> mapping list
(** Only the [Table_link] mappings: entries using the page as a
    page-table page. *)

val data_maps : t -> Addr.frame -> mapping list

val iter_table_links :
  t -> Addr.frame -> (ptp:Addr.frame -> index:int -> unit) -> unit
(** [List.iter] over {!table_links}, without building the list: the
    vMMU climbs these on every shootdown-position lookup. *)

(** {2 The page-protection table}

    The nested kernel's one per-type protection decision: what a
    supervisor leaf of the frame may grant, and whether the IOMMU
    shields it from DMA (I1, I2, I5 and lifetime code integrity).

    {v
      page type                            writable  executable    shielded
      Ptp, Nk_data, Nk_stack, Protected_data  no        no            yes
      Nk_code                                 no        yes           yes
      Outer_code                              no        if validated  if validated
      Unused, Outer_data, User                yes       no            no
    v}

    Secure boot, the vMMU and {!State.retype} apply it;
    {!is_write_protected_type} and {!Invariants} audit the result
    independently and share none of this code. *)

val shielded : page_type -> validated:bool -> bool
(** Whether the IOMMU shields a frame of the type from DMA. *)

val writable : page_type -> bool
(** The writable column: the types the outer kernel may write. *)

val with_rights : page_type -> validated:bool -> Pte.t -> Pte.t
(** The entry with RW and NX set exactly as the row says. *)

val limit : t -> Addr.frame -> Pte.t -> Pte.t
(** Cap a leaf mapping the frame at the frame's row: clear RW and set
    NX where the row says no.  A user leaf of a [User] or [Unused]
    frame keeps what it asked for: user pages may be executable, and
    SMEP keeps the supervisor from running them. *)

val is_write_protected_type : t -> Addr.frame -> bool
(** Pages whose every mapping must be read-only while the outer kernel
    runs: PTPs, all nested-kernel pages, protected data, and validated
    outer-kernel code (Invariants I1/I5 + lifetime code integrity). *)

val is_ptp : t -> Addr.frame -> bool
val ptp_level : t -> Addr.frame -> int option

val iter : t -> (Addr.frame -> unit) -> unit
(** Visit every frame, ascending. *)

val pp_page_type : Format.formatter -> page_type -> unit
