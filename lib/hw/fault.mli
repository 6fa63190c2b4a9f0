(** Hardware faults raised by the simulated machine. *)

type access_kind = Read | Write | Exec

type page_fault_code = {
  present : bool;  (** fault on a present page (protection violation) *)
  write : bool;  (** faulting access was a write *)
  user : bool;  (** faulting access came from user mode *)
  instruction_fetch : bool;
}
(** Mirrors the x86-64 page-fault error code. *)

type t =
  | Page_fault of { va : Addr.va; code : page_fault_code }
  | General_protection of string
      (** Invalid control-register manipulation, bad IDT entry, ... *)
  | Invalid_opcode of { va : Addr.va }

val page_fault :
  ?user:bool -> ?present:bool -> Addr.va -> access_kind -> t

val vector : t -> int
(** Interrupt vector a fault is delivered through (14 for page faults,
    13 for general protection, 6 for invalid opcode). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Hardware of t
(** Raised by machine memory accessors on faulting accesses when the
    caller did not ask for a [result]. *)
