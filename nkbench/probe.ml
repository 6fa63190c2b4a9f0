(* Measurement from outside the system: every call the benchmark makes
   into a layer goes through [start]/[stop], which count the call and
   its simulated-cycle delta always and, only while spans are on, its
   host wall time.  A window groups a fixed amount of simulated work
   under one span; the executor's own time (scheduling, context
   switches, IPI drains) is the window's self time — the window span
   minus the layer spans it covers. *)

open Nkhw

(* Layers the benchmark calls into.  The scheduler is never called
   directly: it is the window span itself. *)
let loadgen = 0
let evloop = 1
let vm = 2
let pipe = 3
let nlayers = 4
let layer_names = [| "loadgen"; "evloop"; "vm"; "pipe" |]
let sched = nlayers

(* The most recent spans, in preallocated rings whose size is a power
   of two, so that recording one allocates nothing. *)
type log = {
  l_name : int array;  (* layer id, or [sched] for a window span *)
  l_parent : int array;  (* sequence number of the enclosing span, -1 at top *)
  l_start : float array;
  l_stop : float array;
  l_cycles : int array;  (* simulated-cycle delta *)
  mutable l_seq : int;  (* spans recorded so far *)
}

type t = {
  clock : Clock.t;
  mutable spans : bool;
  calls : int array;  (* per layer, current window *)
  cycles : int array;
  host : float array;
  c0 : int array;
  t0 : float array;
  log : log;
  mutable parent : int;  (* sequence number of the open window span *)
}

(* A log keeping the last [2^bits] spans; an untraced run records
   none and needs no room. *)
let create_log bits =
  let n = 1 lsl bits in
  {
    l_name = Array.make n 0;
    l_parent = Array.make n 0;
    l_start = Array.make n 0.;
    l_stop = Array.make n 0.;
    l_cycles = Array.make n 0;
    l_seq = 0;
  }

let slot log seq = seq land (Array.length log.l_name - 1)

(* A probe on one simulated clock, recording into [log] (shared by the
   probes of a run). *)
let create log clock =
  {
    clock;
    spans = false;
    calls = Array.make nlayers 0;
    cycles = Array.make nlayers 0;
    host = Array.make nlayers 0.;
    c0 = Array.make nlayers 0;
    t0 = Array.make nlayers 0.;
    log;
    parent = -1;
  }

let record log ~name ~parent ~start ~stop ~cycles =
  let seq = log.l_seq in
  let i = slot log seq in
  log.l_name.(i) <- name;
  log.l_parent.(i) <- parent;
  log.l_start.(i) <- start;
  log.l_stop.(i) <- stop;
  log.l_cycles.(i) <- cycles;
  log.l_seq <- seq + 1;
  seq

let start p l =
  p.c0.(l) <- Clock.cycles p.clock;
  if p.spans then p.t0.(l) <- Unix.gettimeofday ()

let stop p l =
  let dc = Clock.cycles p.clock - p.c0.(l) in
  p.calls.(l) <- p.calls.(l) + 1;
  p.cycles.(l) <- p.cycles.(l) + dc;
  if p.spans then begin
    let t1 = Unix.gettimeofday () in
    p.host.(l) <- p.host.(l) +. (t1 -. p.t0.(l));
    ignore
      (record p.log ~name:l ~parent:p.parent ~start:p.t0.(l) ~stop:t1
         ~cycles:dc)
  end

type window = {
  w_traced : bool;  (* spans were on *)
  w_host : float;  (* wall seconds of the window span *)
  w_cycles : int;  (* simulated cycles the window advanced *)
  w_ops : int;  (* requests completed / transitions checked *)
  w_p50 : int;  (* latency over the window's last requests, cycles *)
  w_p99 : int;
  w_samples : int;  (* requests behind [w_p50] and [w_p99] *)
  w_events : int;  (* readiness events handled *)
  w_calls : int array;  (* per layer *)
  w_lcycles : int array;
  w_lhost : float array;  (* per layer; the scheduler's is the remainder *)
  w_counters : int array;  (* Nktrace counter deltas *)
  w_minor_words : float;
  w_major : int;
}

type outcome = {
  ops : int;
  p50 : int;
  p99 : int;
  samples : int;
  events : int;
  counters : int array;
}

(* Run [f] as one window span. *)
let window p ~traced f =
  Array.fill p.calls 0 nlayers 0;
  Array.fill p.cycles 0 nlayers 0;
  Array.fill p.host 0 nlayers 0.;
  p.spans <- traced;
  let g0 = Gc.quick_stat () in
  let cyc0 = Clock.cycles p.clock in
  let t0 = Unix.gettimeofday () in
  if traced then
    p.parent <-
      record p.log ~name:sched ~parent:(-1) ~start:t0 ~stop:t0 ~cycles:0;
  let o = f () in
  let t1 = Unix.gettimeofday () in
  let cycles = Clock.cycles p.clock - cyc0 in
  let g1 = Gc.quick_stat () in
  if traced && p.log.l_seq - p.parent <= Array.length p.log.l_name then begin
    let i = slot p.log p.parent in
    p.log.l_stop.(i) <- t1;
    p.log.l_cycles.(i) <- cycles
  end;
  p.spans <- false;
  {
    w_traced = traced;
    w_host = t1 -. t0;
    w_cycles = cycles;
    w_ops = o.ops;
    w_p50 = o.p50;
    w_p99 = o.p99;
    w_samples = o.samples;
    w_events = o.events;
    w_calls = Array.copy p.calls;
    w_lcycles = Array.copy p.cycles;
    w_lhost = Array.copy p.host;
    w_counters = o.counters;
    w_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    w_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* The spans still in the log as Chrome trace-event JSON: complete
   events in microseconds, with parent and simulated cycles as args.
   A "window" span's self time is the scheduler's. *)
let write_spans log path =
  let first = max 0 (log.l_seq - Array.length log.l_name) in
  let base = log.l_start.(slot log first) in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for s = first to log.l_seq - 1 do
    let i = slot log s in
    let name =
      if log.l_name.(i) = sched then "window" else layer_names.(log.l_name.(i))
    in
    Printf.fprintf oc
      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"seq\":%d,\"parent\":%d,\"sim_cycles\":%d}}"
      (if s = first then "" else ",")
      name
      (1e6 *. (log.l_start.(i) -. base))
      (1e6 *. (log.l_stop.(i) -. log.l_start.(i)))
      s log.l_parent.(i) log.l_cycles.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
