(** The simulated cycle accumulator of one machine.

    Event counts live in the typed {!Nktrace} registry; a {!Window}
    reads cycles and counters together. *)

type t

val create : unit -> t
val charge : t -> int -> unit
val cycles : t -> int
