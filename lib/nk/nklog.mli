(** Nested-kernel-internal write log.

    Storage for the write-logging mediation policy (paper section
    4.1.3): every mediated write to a logged region is recorded with
    its offset, the bytes it replaced, and the bytes written.  The log
    lives in nested-kernel state, unreachable from the outer kernel;
    forensic tools replay it to reconstruct the history of a protected
    object. *)

type record = {
  seq : int;
  offset : int;  (** byte offset within the logged region *)
  old : string;  (** bytes replaced *)
  data : string;  (** bytes written *)
}

type t

val create : unit -> t
val append : t -> offset:int -> old:bytes -> data:bytes -> unit
val length : t -> int
val records : t -> record list
(** In write order. *)

val replay : t -> initial:bytes -> upto:int -> bytes
(** State of the region after the first [upto] records, starting from
    [initial].  [replay t ~initial ~upto:(length t)] is the current
    contents. *)

val writes_touching : t -> offset:int -> len:int -> record list
(** Records overlapping the byte range [offset, offset+len). *)
