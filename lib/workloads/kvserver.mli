open Outer_kernel

(** Memcached-shaped server on the {!Evloop} readiness loop: fixed
    64-byte requests; GETs answer with a 512-byte value, SETs churn a
    value buffer through the kernel slab and answer a short STORED.
    The op code rides in the connection cookie (standing in for the
    request payload, which the model never materializes). *)

val req_bytes : int

val gen : (int -> int) -> int * int * int
(** Request generator for {!Loadgen.config.gen}: 90% GET / 10% SET. *)

type t

val create :
  ?lfd:int -> ?et:bool -> ?backlog:int -> ?accept_burst:int ->
  Kernel.t -> Proc.t -> t
(** A worker; [lfd] shares an existing listener across SMP workers. *)

val ev : t -> Evloop.t
val gets : t -> int
val sets : t -> int
