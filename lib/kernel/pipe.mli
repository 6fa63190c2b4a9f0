open Nkhw

(** Kernel pipes: a ring buffer in kernel memory with copy costs.

    Non-blocking semantics (the simulator has no sleep/wakeup): writes
    store at most the available space and reads return at most the
    buffered bytes. *)

type t

val capacity : int
(** 4096 bytes, one page. *)

val write : t -> bytes -> int
(** Bytes actually buffered. *)

val read : t -> int -> bytes
(** Up to [n] buffered bytes, consumed. *)

type role = R | W
type Fdesc.priv += Pipe_end of t * role

val fdesc_pair :
  Machine.t -> Frame_alloc.t -> (Fdesc.t * Fdesc.t, Ktypes.errno) result
(** [(read_end, write_end)] as file descriptions.  The ends poke each
    other on every state change (write -> reader readable, read ->
    writer writable, close -> peer hangup) and share a single
    role-parametrized close path; the buffer frame is freed when the
    second end closes. *)
