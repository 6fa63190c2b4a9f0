open Outer_kernel

(** The readiness loop shared by the event-driven servers: one epoll
    instance per worker over a (possibly shared) listener, with
    per-connection request framing and response streaming.

    Requests are fixed-size on the wire ([req_size] bytes; a slowloris
    client simply takes many ticks to deliver them).  When one
    accumulates, [respond] runs the application work and returns the
    response byte count; the loop streams it against the connection's
    bounded send window, subscribing EPOLLOUT only while the window is
    full — so an idle connection costs nothing per {!step}. *)

type app = {
  req_size : int;
  respond : fd:int -> Socket.conn option -> int;
  on_block : fd:int -> int -> unit;
  on_done : fd:int -> unit;
  on_close : fd:int -> unit;
}

val app :
  ?on_block:(fd:int -> int -> unit) ->
  ?on_done:(fd:int -> unit) ->
  ?on_close:(fd:int -> unit) ->
  req_size:int ->
  (fd:int -> Socket.conn option -> int) ->
  app
(** Build an [app]; the omitted hooks default to no-ops. *)

type t

val create :
  ?lfd:int ->
  ?et:bool ->
  ?backlog:int ->
  ?tx_block:int ->
  ?accept_burst:int ->
  Kernel.t ->
  Proc.t ->
  app ->
  t
(** A worker loop for process [p].  [lfd] reuses an existing listener
    descriptor (SMP workers sharing one listen queue); otherwise a
    fresh listener is created with [backlog].  [et] runs connections
    edge-triggered (the listener stays level-triggered so a capped
    accept burst cannot strand queued connections); [tx_block] is the
    sendfile-style block size (default 16 KiB); [accept_burst] caps
    accepts per readiness event (default 64). *)

val step : ?maxev:int -> t -> int
(** One [epoll_wait] plus handling; returns events delivered. *)

val listener : t -> Socket.listener

val accepted : t -> int
