open Nkhw

(** Per-process virtual address spaces.

    All translation updates go through the pluggable {!Mmu_backend},
    so the same code serves the native baseline and every nested
    configuration.  An eager mmap or a fork pushes its PTE updates
    into a {!Mmu_backend.stage}, which decides whether they go one by
    one or as one batch: this module has one path per operation and
    never asks which kind of backend it runs on.  Implements the paths the paper's LMBench numbers
    exercise: demand paging, eager population, copy-on-write fork,
    exec tear-down/rebuild, and full destruction. *)

type env = {
  machine : Machine.t;
  backend : Mmu_backend.t;
  falloc : Frame_alloc.t;
  share : (Addr.frame, int) Hashtbl.t;
      (** copy-on-write share counts; absent means sole owner *)
  asids : Asid_pool.t option;
      (** PCID pool; [None] disables tagged switching *)
}

type prot = Ro | Rw
type kind = Anon | Text | Stack | File

type region = {
  r_start : Addr.va;
  r_len : int;
  r_prot : prot;
  r_kind : kind;
}

type t = {
  root : Addr.frame;  (** this address space's PML4 *)
  mutable regions : region list;
  mutable next_mmap : Addr.va;
  mutable asid : int;  (** PCID this space last switched under *)
  mutable asid_stamp : int;  (** pool stamp proving [asid] is still ours *)
  mutable domain : int;  (** tenant domain owning the space; 0 = host *)
}

val user_text_base : Addr.va
val user_stack_top : Addr.va

val create :
  ?domain:int -> env -> kernel_root:Addr.frame -> (t, Ktypes.errno) result
(** New address space sharing the kernel half of [kernel_root];
    allocates an ASID from [domain]'s partition (default 0, the host)
    when the env carries a pool.  [Error Eagain] when the domain's
    partition is empty — the pool never borrows a peer's tag. *)

val ensure_asid : env -> t -> int option
(** The ASID to tag the next switch with, re-allocating from the
    space's own domain partition if the pool recycled this space's
    slot.  [None] when tagged switching is off or the partition is
    exhausted (untagged switch, fail closed). *)

val map_region :
  env ->
  t ->
  ?at:Addr.va ->
  len:int ->
  prot ->
  kind ->
  populate:bool ->
  (Addr.va, Ktypes.errno) result
(** mmap: create a region ([at] defaults to the mmap area), eagerly
    populating its pages when [populate].  A failed populate drops the
    region and returns each page's frame exactly once, also after a
    batch the backend applied only in part. *)

val unmap_region : env -> t -> Addr.va -> (unit, Ktypes.errno) result
(** munmap of a whole region by its start address. *)

val handle_fault :
  env -> t -> Addr.va -> Fault.access_kind -> (unit, Ktypes.errno) result
(** Page-fault handler: demand-zero, text demand-load, or
    copy-on-write resolution.  [Error Efault] for accesses outside any
    region or violating its protection. *)

val fork : env -> t -> (t, Ktypes.errno) result
(** Copy-on-write duplicate: every populated writable page is
    downgraded to read-only in the parent and mapped shared in the
    child.  On failure the child is destroyed and only the installs
    that landed in it held a share, so every parent frame stays
    allocated. *)

val exec_reset :
  env ->
  t ->
  text_pages:int ->
  data_pages:int ->
  stack_pages:int ->
  (unit, Ktypes.errno) result
(** execve: discard all user mappings, then map a fresh image — text
    (read-only, executable, eagerly loaded), data (read-write, eager),
    and a demand-paged stack. *)

val destroy : env -> t -> unit
(** Tear down every user mapping and retire all this space's
    page-table pages. *)

val populated_pages : env -> t -> int
(** Present user leaf mappings (diagnostics). *)
