open Outer_kernel

(** OpenSSH file-transfer model (paper Figure 5).

    Each transfer runs a per-connection phase (fork+exec of the
    session child plus session syscalls — the kernel-heavy part the
    nested kernel taxes) and a streaming phase (8 KiB blocks: read
    syscall, per-byte cipher cost on the simulated CPU, socket copy),
    then tears the session down.  Transfer time combines the CPU time
    actually accumulated on the simulated clock with the 1 Gbps wire
    time; bandwidth is reported relative to native, as in the paper. *)

type point = {
  size_kb : int;
  native_mb_s : float;
  relative : (Config.t * float) list;  (** bandwidth relative to native *)
}

val sizes_kb : int list
(** 1 KB .. 16 MB, the x-axis of Figure 5. *)

val run : ?transfers:int -> unit -> point list
(** [transfers] per size (paper: 20; default 6 — the simulated clock is
    deterministic). *)

val to_table : point list -> Stats.table
