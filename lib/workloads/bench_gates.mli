(** The gates [bench --check] owns beside each workload's [check], in
    the same form: one message per violated bound, [[]] when all hold. *)

val gc : syscall:float -> traced:float -> open_close:float -> string list
(** Minor words per op: at most 8 per null syscall, traced or not, and
    256 per open/close pair. *)

val coherence : baseline:int -> off:int -> on:int -> string list
(** The oracle is cycle-free: installed-then-removed ([off]) and running
    ([on]) both cost exactly the never-installed [baseline]. *)

val wallclocks : Nktrace.Json.t -> (string * float option) list
(** A bench JSON's gated host wallclock rates (see {!Harness.wallclock}):
    [smp_scaling], [fault_soak] and [server_scale/<config>/10k] per
    {!Server_scale.configs}; [None] where missing. *)

val wallclock : baseline:Nktrace.Json.t -> Nktrace.Json.t -> string list
(** Each {!wallclocks} rate is at least 0.75x the baseline's; a rate
    missing on either side fails. *)
