(* The two serving workloads, driven through the public functions of
   each layer: boot, tenant domains, kv servers behind their
   listeners, open-loop load generators, and the seeded SMP executor.
   The system under test is the perspicuos configuration with the
   batched vMMU, PCID and the tracer on (the load generator's latency
   histogram lives in the tracer); the coherence oracle stays off
   during the run and is consulted once, in the correctness gate. *)

open Nkhw
open Outer_kernel
open Nk_workloads
module Api = Nested_kernel.Api

type shape = {
  tenants : int;  (* 0: one shared listener with a worker per vCPU *)
  conns : int;  (* live-connection target per load generator *)
  cpus : int;
  frames : int;
  window_steps : int;  (* executor steps per window *)
  measured : int;  (* windows measured per round, after warm-up *)
}

let tenants =
  { tenants = 16; conns = 400; cpus = 8; frames = 32768; window_steps = 500; measured = 10 }

let c10k =
  { tenants = 0; conns = 50_000; cpus = 8; frames = 16384; window_steps = 150; measured = 40 }

let tenants_tiny =
  { tenants = 4; conns = 64; cpus = 4; frames = 8192; window_steps = 400; measured = 2 }

let c10k_tiny =
  { tenants = 0; conns = 2_000; cpus = 4; frames = 8192; window_steps = 100; measured = 2 }

(* Mmap scratch each tenant churns per quantum, as in the multitenant
   experiment: [scratch_iters] rounds of an 8-page populated mapping. *)
let scratch_pages = 8
let scratch_iters = 3

(* Counters read around every window, in this order. *)
let counters =
  Nktrace.
    [|
      Nk_enter; Pte_write; Pte_write_batch; Declare_ptp; Remove_ptp; Load_cr3;
      Load_cr3_pcid; Tlb_hit; Tlb_miss; Tlb_flush_full; Tlb_flush_asid;
      Shootdown_sent; Shootdown_filtered; Shootdown_coalesced; Ipi_shootdown;
      Context_switch; Sched_steal; Cpu_migration; Flush_deferred;
      Flush_on_reuse; Accept_local; Accept_steal; Sock_backlog_drop;
      Slab_cpu_hit; Slab_cpu_refill; Syscall; Epoll_wakeup;
    |]

let counter_index c =
  let rec go i = if counters.(i) = c then i else go (i + 1) in
  go 0

type worker = {
  srv : Kvserver.t;
  proc : Proc.t;
  load : Loadgen.t;  (* shared by every worker when there are no tenants *)
  send_to : int;  (* pipe neighbours (tenant domains), -1 without pipes *)
  recv_from : int;
}

type t = {
  shape : shape;
  k : Kernel.t;
  nk : Api.t;
  sched : Sched.t;
  workers : (Ktypes.pid, worker) Hashtbl.t;
  loads : Loadgen.t array;
  listeners : Socket.listener array;
  active : int;  (* requesters per load generator *)
  domains : int array;
  mutable pipe_full : int;  (* heartbeats refused: pipe at capacity *)
  mutable events : int;  (* readiness events the loops handled *)
}

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Ktypes.errno_to_string e)

let nk_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Nested_kernel.Nk_error.to_string e)

let load_config ~seed ~conns ~tenant =
  if tenant then
    {
      Loadgen.seed;
      conns;
      active = max 16 (conns / 8);
      slow = max 1 (conns / 200);
      slow_chunk = Kvserver.req_bytes / 8;
      ramp_per_tick = max 8 (conns / 50);
      keepalive = 8;
      think_max = 16;
      gen = Kvserver.gen;
    }
  else
    {
      Loadgen.seed;
      conns;
      active = min 1024 (max 32 (conns / 100));
      slow = max 2 (min 64 (conns / 1600));
      slow_chunk = Kvserver.req_bytes / 8;
      ramp_per_tick = max 16 (conns / 500);
      keepalive = 8;
      think_max = 16;
      gen = Kvserver.gen;
    }

(* Tenants: one domain, one forked server process with its own
   listener and its own load each; neighbour pipes i -> i+1. *)
let setup_tenants ~seed shape k sched =
  let m = k.Kernel.machine in
  let nk = Option.get k.Kernel.nk in
  Sched.set_domain_credits sched ~quantum:4;
  let p0 = Kernel.current_proc k in
  let n = shape.tenants in
  let domains = Array.init n (fun _ -> ok "create_domain" (Kernel.create_domain k)) in
  let workers = Hashtbl.create n in
  let loads =
    Array.init n (fun i ->
        let pid = ok "fork" (Syscalls.fork k p0) in
        let p = Option.get (Kernel.proc k pid) in
        ok "adopt_domain" (Kernel.adopt_domain k p ~domain:domains.(i));
        let srv = Kvserver.create ~backlog:4096 ~accept_burst:64 k p in
        let load =
          Loadgen.create m
            (Evloop.listener (Kvserver.ev srv))
            (load_config ~seed:(seed + (31 * i)) ~conns:shape.conns ~tenant:true)
        in
        Hashtbl.replace workers pid
          {
            srv;
            proc = p;
            load;
            send_to = domains.((i + 1) mod n);
            recv_from = domains.((i + n - 1) mod n);
          };
        Sched.add_on sched pid (i mod shape.cpus);
        load)
  in
  Array.iteri
    (fun i d ->
      nk_ok "nk_pipe_open"
        (Api.nk_pipe_open nk ~src:d ~dst:domains.((i + 1) mod n) ()))
    domains;
  (workers, loads, domains)

(* c10k: the boot process plus one forked worker per further vCPU,
   all behind one shared, sharded listener and one load generator. *)
let setup_c10k ~seed shape k sched =
  let p0 = Kernel.current_proc k in
  let lfd0 = ok "listen" (Syscalls.listen k p0 ~backlog:16384) in
  let ldesc = Option.get (Proc.fd_handle p0 lfd0) in
  let srv0 = Kvserver.create ~lfd:lfd0 ~accept_burst:256 k p0 in
  let load =
    Loadgen.create k.Kernel.machine
      (Evloop.listener (Kvserver.ev srv0))
      (load_config ~seed ~conns:shape.conns ~tenant:false)
  in
  let workers = Hashtbl.create shape.cpus in
  let add p srv =
    Hashtbl.replace workers p.Proc.pid
      { srv; proc = p; load; send_to = -1; recv_from = -1 }
  in
  add p0 srv0;
  for cpu = 1 to shape.cpus - 1 do
    let pid = ok "fork" (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    Fdesc.get ldesc;
    let lfd = ok "add_fd" (Proc.add_fd p ldesc) in
    add p (Kvserver.create ~lfd ~accept_burst:256 k p);
    Sched.add_on sched pid cpu
  done;
  (workers, [| load |], [||])

let setup ~seed shape =
  let k =
    Os.boot ~batched:true ~trace:true ~cpus:shape.cpus ~frames:shape.frames
      ~domains:shape.tenants Config.Perspicuos
  in
  let sched = Sched.create k in
  let tenant = shape.tenants > 0 in
  let workers, loads, domains =
    if tenant then setup_tenants ~seed shape k sched
    else setup_c10k ~seed shape k sched
  in
  let listeners =
    Hashtbl.fold (fun _ w acc -> Evloop.listener (Kvserver.ev w.srv) :: acc) workers []
  in
  {
    shape;
    k;
    nk = Option.get k.Kernel.nk;
    sched;
    workers;
    loads;
    listeners =
      Array.of_list
        (List.fold_left
           (fun acc l -> if List.memq l acc then acc else l :: acc)
           [] listeners);
    active = (load_config ~seed ~conns:shape.conns ~tenant).Loadgen.active;
    domains;
    pipe_full = 0;
    events = 0;
  }

(* One quantum of the dispatched worker. *)
let quantum t probe w =
  let k = t.k in
  Probe.start probe Probe.loadgen;
  Loadgen.tick w.load;
  Probe.stop probe Probe.loadgen;
  Probe.start probe Probe.evloop;
  let maxev = if t.shape.tenants > 0 then 64 else 128 in
  t.events <- t.events + Evloop.step (Kvserver.ev w.srv) ~maxev;
  Probe.stop probe Probe.evloop;
  if t.shape.tenants > 0 then begin
    for _ = 1 to scratch_iters do
      Probe.start probe Probe.vm;
      let r =
        Syscalls.mmap k w.proc ~len:(scratch_pages * Addr.page_size) ~rw:true
          ~populate:true ()
      in
      Probe.stop probe Probe.vm;
      match r with
      | Ok va ->
          Probe.start probe Probe.vm;
          ignore (Syscalls.munmap k w.proc va);
          Probe.stop probe Probe.vm
      | Error _ -> ()
    done;
    (* Heartbeat forward, drain whatever the predecessor sent. *)
    Probe.start probe Probe.pipe;
    (match Api.nk_pipe_send t.nk ~dst:w.send_to 0 with
    | Error (Nested_kernel.Nk_error.Eagain _) -> t.pipe_full <- t.pipe_full + 1
    | Ok () | Error _ -> ());
    ignore (Api.nk_pipe_recv t.nk ~src:w.recv_from);
    Probe.stop probe Probe.pipe
  end

let hist t = Nktrace.histogram t.k.Kernel.machine.Machine.trace Loadgen.hist_name
let completed t = Array.fold_left (fun a l -> a + Loadgen.completed l) 0 t.loads

let read_counters t =
  let tr = t.k.Kernel.machine.Machine.trace in
  Array.map (Nktrace.counter_value tr) counters

(* Run [steps] executor steps as one window.  Each window gets its own
   executor seed, derived from the run seed and the window index. *)
let run_window t probe ~seed ~index ~traced =
  Probe.window probe ~traced (fun () ->
      let done0 = completed t and ev0 = t.events in
      let n0 = match hist t with Some h -> h.Nktrace.h_count | None -> 0 in
      let c0 = read_counters t in
      ignore
        (Sched.run_smp t.sched
           ~policy:(Smp.Executor.Seeded (seed + (1_000_003 * index)))
           ~steps:t.shape.window_steps
           (fun ~cpu:_ pid ->
             (match Hashtbl.find_opt t.workers pid with
             | Some w -> quantum t probe w
             | None -> ());
             true));
      let c1 = read_counters t in
      let p50, p99, n1 =
        match hist t with
        | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.h_count)
        | None -> (0, 0, 0)
      in
      {
        Probe.ops = completed t - done0;
        p50;
        p99;
        (* the histogram keeps the last 1024 samples *)
        samples = min 1024 (n1 - n0);
        events = t.events - ev0;
        counters = Array.mapi (fun i c -> c - c0.(i)) c1;
      })

(* Warm-up is over once every load generator has ramped its whole
   population and all its idle connections are live. *)
let warm t =
  Array.for_all
    (fun l ->
      Loadgen.started l = t.shape.conns
      && Loadgen.live l >= t.shape.conns - t.active)
    t.loads

(* Connection attempts and failures since boot.  A failed connect is a
   listener drop (backlog full) or a buffer-allocation failure. *)
let connects t =
  let failed = Array.fold_left (fun a l -> a + Loadgen.failed_connects l) 0 t.loads in
  let tr = t.k.Kernel.machine.Machine.trace in
  let accepted =
    Nktrace.counter_value tr Nktrace.Accept_local
    + Nktrace.counter_value tr Nktrace.Accept_steal
  in
  let pending = Array.fold_left (fun a l -> a + Socket.pending l) 0 t.listeners in
  (accepted + pending + failed, failed)

(* Simulated cycles per syscall over the dispatch spans so far:
   (count, total cycles). *)
let syscall_totals t =
  let snap = Nktrace.snapshot t.k.Kernel.machine.Machine.trace in
  List.fold_left
    (fun (n, sum) (name, h) ->
      if String.length name > 4 && String.sub name 0 4 = "sys_" then
        (n + h.Nktrace.h_count, sum +. (h.Nktrace.h_mean *. float_of_int h.Nktrace.h_count))
      else (n, sum))
    (0, 0.) snap.Nktrace.histograms

let gate_crossing_p50 t =
  match Nktrace.histogram t.k.Kernel.machine.Machine.trace "gate_crossing" with
  | Some h -> h.Nktrace.p50
  | None -> 0

(* The correctness gate, run after the measured windows: every check
   that fails is returned by name. *)
let gate t =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  Api.nk_flush_all_deferred t.nk;
  check "coherence"
    (Api.Diagnostics.Coherence.snapshot ~op:"nkbench-final" t.nk = []);
  check "audit" (Api.audit t.nk = []);
  let denials =
    Array.fold_left (fun a d -> a + Api.nk_domain_denials t.nk d) 0
      (Array.append [| 0 |] t.domains)
  in
  check "domain-denials" (denials = 0);
  let tr = t.k.Kernel.machine.Machine.trace in
  let accepted =
    Hashtbl.fold (fun _ w a -> a + Evloop.accepted (Kvserver.ev w.srv)) t.workers 0
  in
  check "accept-accounting"
    (Nktrace.counter_value tr Nktrace.Accept_local
     + Nktrace.counter_value tr Nktrace.Accept_steal
    = accepted);
  let leaks =
    Array.fold_left
      (fun a domain ->
        match Kernel.destroy_domain t.k ~domain with
        | Ok leaked -> a + leaked
        | Error _ -> a + 1)
      0 t.domains
  in
  check "teardown-leaks" (leaks = 0);
  (List.rev !fails, denials, leaks)
