(* Event-driven serving at scale: the kv server on 8 vCPUs behind one
   shared listener, swept from 1k to 100k live connections per
   configuration.  Every worker runs its own epoll instance over the
   sharded accept queue; the open-loop load generator keeps the
   population connected (most idle, a bounded active set issuing
   keep-alive chains, a few slowloris stragglers), so what the sweep
   shows is exactly what the fd/readiness redesign claims: per-request
   latency and fd-op cost that do not grow with the number of live
   connections, and accept work that stays CPU-local until a worker
   falls behind.  Everything is simulated-cycle arithmetic under a
   seeded executor, so a fixed seed reproduces every number. *)

open Nkhw
open Outer_kernel

type point = {
  config : Config.t;
  conns : int;  (* requested live-connection target *)
  seed : int;
  steps : int;
  live_peak : int;
  accepted : int;
  completed : int;  (* requests answered end-to-end *)
  gets : int;
  sets : int;
  p50 : int;  (* request latency percentiles, simulated cycles *)
  p99 : int;
  p999 : int;
  fd_op_cycles : int;  (* one open/close pair at peak table size *)
  accepts_local : int;
  accepts_steal : int;
  backlog_drops : int;
  epoll_wakeups : int;
  slab_hits : int;
  slab_refills : int;
  cycles : int;
  host_secs : float;
  oracle_violations : int;
  audit_failures : int;
}

let conn_counts = [ 1_000; 5_000; 10_000; 50_000; 100_000 ]
let configs = [ Config.Native; Config.Perspicuos ]
let cpus = 8

let ok = function
  | Ok v -> v
  | Error e -> failwith ("server_scale: " ^ Ktypes.errno_to_string e)

(* Cycles for one open/close pair, averaged over a small burst, with
   the fd table at whatever size the run left it — the flatness probe
   for the two-level-bitmap allocator. *)
let fd_op_probe k p =
  let rounds = 64 in
  let w =
    Window.repeat k.Kernel.machine rounds (fun () ->
        let fd = ok (Syscalls.open_ k p "/srv/fdprobe") in
        ignore (ok (Syscalls.close k p fd)))
  in
  Window.cycles w / rounds

let run_one ?(seed = Harness.default_seed) ?(et = false) ~config conns =
  let host0 = Sys.time () in
  let k =
    Os.boot ~batched:true ~trace:true ~cpus ~frames:16384 config
  in
  let m = k.Kernel.machine in
  let trace = m.Machine.trace in
  let h = Harness.arm k in
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  let lfd0 = ok (Syscalls.listen k p0 ~backlog:16384) in
  let ldesc = Option.get (Proc.fd_handle p0 lfd0) in
  (* One worker per CPU behind the shared listener: the boot process
     plus seven forked children that inherit the listening
     description, each pinned to its own CPU's run queue. *)
  let workers = Hashtbl.create cpus in
  let srv0 = Kvserver.create ~lfd:lfd0 ~et ~accept_burst:256 k p0 in
  Hashtbl.replace workers p0.Proc.pid srv0;
  for cpu = 1 to cpus - 1 do
    let pid = ok (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    Fdesc.get ldesc;
    let lfd = ok (Proc.add_fd p ldesc) in
    Hashtbl.replace workers pid (Kvserver.create ~lfd ~et ~accept_burst:256 k p);
    Sched.add_on sched pid cpu
  done;
  let lst = Evloop.listener (Kvserver.ev srv0) in
  let lg =
    Loadgen.create m lst
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
  in
  let w = Window.start m in
  let steps = 800 + (conns / 100) in
  let taken =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps
      (fun ~cpu:_ pid ->
        (* The outside world advances once per quantum... *)
        Loadgen.tick lg;
        (* ...and the dispatched worker runs one turn of its loop. *)
        (match Hashtbl.find_opt workers pid with
        | Some srv -> ignore (Evloop.step (Kvserver.ev srv) ~maxev:128)
        | None -> ());
        true)
  in
  (* Probe fd-op cost on the fattest fd table before teardown. *)
  let fat =
    Hashtbl.fold
      (fun pid _ best ->
        match (Kernel.proc k pid, best) with
        | Some p, Some b ->
            if Proc.fd_count p > Proc.fd_count b then Some p else Some b
        | Some p, None -> Some p
        | None, best -> best)
      workers None
  in
  let fd_op_cycles = fd_op_probe k (Option.get fat) in
  let oracle_violations, audit_failures = Harness.close h in
  let p50, p99, p999 =
    match Nktrace.histogram trace Loadgen.hist_name with
    | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.p999)
    | None -> (0, 0, 0)
  in
  let gets, sets =
    Hashtbl.fold
      (fun _ srv (g, s) -> (g + Kvserver.gets srv, s + Kvserver.sets srv))
      workers (0, 0)
  in
  let accepted =
    Hashtbl.fold
      (fun _ srv acc -> acc + Evloop.accepted (Kvserver.ev srv))
      workers 0
  in
  {
    config;
    conns;
    seed;
    steps = taken;
    live_peak = Loadgen.live_peak lg;
    accepted;
    completed = Loadgen.completed lg;
    gets;
    sets;
    p50;
    p99;
    p999;
    fd_op_cycles;
    accepts_local = Window.count w Nktrace.Accept_local;
    accepts_steal = Window.count w Nktrace.Accept_steal;
    backlog_drops = Window.count w Nktrace.Sock_backlog_drop;
    epoll_wakeups = Window.count w Nktrace.Epoll_wakeup;
    slab_hits = Window.count w Nktrace.Slab_cpu_hit;
    slab_refills = Window.count w Nktrace.Slab_cpu_refill;
    cycles = Window.cycles w;
    host_secs = Sys.time () -. host0;
    oracle_violations;
    audit_failures;
  }

let run ?seed ?et ?(conn_counts = conn_counts) () =
  let seed = match seed with Some s -> s | None -> Harness.env_seed () in
  List.concat_map
    (fun config ->
      List.map (fun conns -> run_one ~seed ?et ~config conns) conn_counts)
    configs

let to_table points =
  {
    Stats.title =
      Printf.sprintf
        "Server scaling: kv server, %d vCPUs, 1k..100k live connections \
         (sched seed %d)"
        cpus
        (match points with p :: _ -> p.seed | [] -> Harness.default_seed);
    columns =
      [
        "config"; "conns"; "live peak"; "reqs"; "p50"; "p99"; "p999";
        "fd-op cyc"; "acc local"; "acc steal"; "drops"; "wakeups";
        "slab hit%"; "oracle"; "audit";
      ];
    rows =
      List.map
        (fun p ->
          [
            Config.name p.config;
            string_of_int p.conns;
            string_of_int p.live_peak;
            string_of_int p.completed;
            string_of_int p.p50;
            string_of_int p.p99;
            string_of_int p.p999;
            string_of_int p.fd_op_cycles;
            string_of_int p.accepts_local;
            string_of_int p.accepts_steal;
            string_of_int p.backlog_drops;
            string_of_int p.epoll_wakeups;
            (let total = p.slab_hits + p.slab_refills in
             if total = 0 then "-"
             else
               Printf.sprintf "%.1f"
                 (100.0 *. float_of_int p.slab_hits /. float_of_int total));
            string_of_int p.oracle_violations;
            string_of_int p.audit_failures;
          ])
        points;
    notes =
      [
        "latencies in simulated cycles, first request byte to last response \
         byte, slowloris stragglers included";
        "fd-op cyc: one open/close pair probed at peak fd-table size — flat \
         across the sweep is the two-level-bitmap claim";
        "most connections idle; the active set is bounded, so p99 reflects \
         readiness-loop cost, not population size";
      ];
  }

let point_json p : Nktrace.Json.t =
  Obj
    [
      ("config", Str (Config.name p.config));
      ("conns", Int p.conns);
      ("steps", Int p.steps);
      ("live_peak", Int p.live_peak);
      ("accepted", Int p.accepted);
      ("completed", Int p.completed);
      ("gets", Int p.gets);
      ("sets", Int p.sets);
      ("p50", Int p.p50);
      ("p99", Int p.p99);
      ("p999", Int p.p999);
      ("fd_op_cycles", Int p.fd_op_cycles);
      ("accepts_local", Int p.accepts_local);
      ("accepts_steal", Int p.accepts_steal);
      ("backlog_drops", Int p.backlog_drops);
      ("epoll_wakeups", Int p.epoll_wakeups);
      ("slab_hits", Int p.slab_hits);
      ("slab_refills", Int p.slab_refills);
      ("cycles", Int p.cycles);
      ("wallclock", Num (Harness.wallclock p.cycles p.host_secs, 0));
      ("oracle_violations", Int p.oracle_violations);
      ("audit_failures", Int p.audit_failures);
    ]

let to_json ~host_secs points : Nktrace.Json.t =
  Obj
    [
      ( "seed",
        Int (match points with p :: _ -> p.seed | [] -> Harness.default_seed) );
      ("cpus", Int cpus);
      ("host_secs", Num (host_secs, 1));
      ("points", List (List.map point_json points));
    ]

let check points =
  let configs = List.sort_uniq compare (List.map (fun p -> p.config) points) in
  Harness.unmet
    (( List.length points >= 10,
       Printf.sprintf "swept only %d points, expected 10" (List.length points) )
    :: List.concat_map
         (fun p ->
           Harness.zeros
             (Printf.sprintf "%s/%d: %s" (Config.name p.config) p.conns)
             [
               ("oracle_violations", p.oracle_violations);
               ("audit_failures", p.audit_failures);
               ("backlog_drops", p.backlog_drops);
               ( "accepted - accepts_local - accepts_steal",
                 p.accepted - p.accepts_local - p.accepts_steal );
             ])
         points
    @ List.concat_map
        (fun config ->
          let mine = List.filter (fun p -> p.config = config) points in
          let at n f =
            List.find_map
              (fun p -> if p.conns = n then Some (f p) else None)
              mine
          in
          let ops =
            List.sort_uniq compare (List.map (fun p -> p.fd_op_cycles) mine)
          in
          let name = Config.name config in
          [
            (List.length ops = 1, name ^ ": fd_op_cycles is not flat 1k->100k");
            Harness.bound (name ^ ": live_peak at 100k")
              (at 100_000 (fun p -> p.live_peak))
              (fun n -> n >= 50_000)
              ">= 50000";
            Harness.bound (name ^ ": p99 at 10k")
              (at 10_000 (fun p -> p.p99))
              (fun n -> n <= 5_000_000)
              "<= 5000000 cycles";
          ])
        configs)
