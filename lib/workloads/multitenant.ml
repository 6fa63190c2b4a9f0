(* Multi-tenant serving: N mutually distrusting tenant domains above
   one nested kernel, each running its own kv server behind its own
   listener with its own open-loop load, scheduled across the SMP
   executor under per-domain run-queue credits.  Each quantum the
   dispatched tenant also churns a small mmap/touch/munmap scratch
   region, so the MMU-mediation boundary is on the hot path — exactly
   where the three configurations differ:

   - nested multi-tenant: every MMU update crosses the nested-kernel
     gate (batched), every update is checked against the ownership
     lattice (I14), context switches enter the tenant's domain;
   - native single-domain: the same total load with direct PTE stores
     and no isolation — the no-protection ceiling;
   - simulated hypervisor: every mediated MMU op pays the VMCALL round
     trip and PCID is off (per-tenant full-address-space worlds with a
     full TLB flush per switch) — what page-table protection costs
     when the mediator sits below a hardware virtualization boundary.

   All simulated-cycle arithmetic under a seeded executor: a fixed
   seed reproduces every number, denial counter included. *)

open Nkhw
open Outer_kernel

type tenant = {
  t_domain : int;
  t_pid : Ktypes.pid;
  t_completed : int;  (* requests answered end-to-end *)
  t_gets : int;
  t_sets : int;
  t_live_peak : int;
}

type point = {
  config : Config.t;
  tenants : int;
  conns : int;  (* per-tenant live-connection target *)
  seed : int;
  steps : int;
  per_tenant : tenant list;
  completed : int;  (* aggregate *)
  p50 : int;  (* aggregate request latency, simulated cycles *)
  p99 : int;
  p999 : int;
  throughput : float;  (* requests per simulated Mcycle, aggregate *)
  xdom_denials : int;  (* cross-domain denials the nested kernel counted *)
  vmcalls : int;  (* hypervisor exits (Hyper configuration only) *)
  sched_epochs : int;  (* credit-refill epochs *)
  pipe_words : int;  (* heartbeats over the gate-mediated pipes *)
  teardown_leaks : int;  (* frames still owner-marked at domain destroy *)
  cycles : int;
  host_secs : float;
  oracle_violations : int;
  audit_failures : int;
}

let tenant_counts = [ 4; 8; 16 ]
let configs = [ Config.Perspicuos; Config.Native; Config.Hyper ]
let cpus = 8
let default_conns = 400

(* Scratch each tenant churns per quantum: [scratch_iters] rounds of
   mapping, populating and unmapping [scratch_pages] pages.  Heavy
   enough that the per-operation mediation cost dominates the fixed
   serving overhead — at this intensity the nested kernel's batched
   gate crossings and deferred unmaps hold it within a few percent of
   native, while the per-item VMCALL exits put the hypervisor baseline
   a factor of two out. *)
let scratch_pages = 8
let scratch_iters = 3

let ok = function
  | Ok v -> v
  | Error e -> failwith ("multitenant: " ^ Ktypes.errno_to_string e)

let run_one ?(seed = Harness.default_seed) ?(tenants = 8)
    ?(conns = default_conns) ~config () =
  let host0 = Sys.time () in
  let isolated = Config.is_nested config in
  let k =
    Os.boot ~batched:true ~trace:true ~cpus ~frames:32768
      ~domains:(if isolated then tenants else 0)
      ~pcid:(config <> Config.Hyper)
      config
  in
  let m = k.Kernel.machine in
  let h = Harness.arm k in
  let sched = Sched.create k in
  if isolated then Sched.set_domain_credits sched ~quantum:4;
  let p0 = Kernel.current_proc k in
  (* One tenant = one domain + one forked server process with its own
     listener and its own load.  Under the nested kernel the host
     adopts the process's page-table tree into the domain, so from
     here on every mediated MMU update it causes is checked against
     the ownership lattice. *)
  let servers = Hashtbl.create tenants in
  let loads = Hashtbl.create tenants in
  let domains = Array.make tenants 0 in
  for i = 0 to tenants - 1 do
    let domain = if isolated then ok (Kernel.create_domain k) else 0 in
    domains.(i) <- domain;
    let pid = ok (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    if isolated then ok (Kernel.adopt_domain k p ~domain);
    let srv = Kvserver.create ~backlog:4096 ~accept_burst:64 k p in
    Hashtbl.replace servers pid srv;
    let lg =
      Loadgen.create m
        (Evloop.listener (Kvserver.ev srv))
        {
          Loadgen.seed = seed + (31 * i);
          conns;
          active = max 16 (conns / 8);
          slow = max 1 (conns / 200);
          slow_chunk = Kvserver.req_bytes / 8;
          ramp_per_tick = max 8 (conns / 50);
          keepalive = 8;
          think_max = 16;
          gen = Kvserver.gen;
        }
    in
    Hashtbl.replace loads pid lg;
    Sched.add_on sched pid (i mod cpus)
  done;
  (* The only legal inter-tenant channel: neighbor pipes, a heartbeat
     word per quantum, host-opened. *)
  let pipe_words = ref 0 in
  (match k.Kernel.nk with
  | Some nk when tenants > 1 ->
      for i = 0 to tenants - 1 do
        ignore
          (Nested_kernel.Api.nk_pipe_open nk ~src:domains.(i)
             ~dst:domains.((i + 1) mod tenants)
             ())
      done
  | _ -> ());
  let w = Window.start m in
  let steps = (600 + (conns / 4)) * max 1 (tenants / 2) in
  let taken =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps
      (fun ~cpu:_ pid ->
        match (Hashtbl.find_opt servers pid, Kernel.proc k pid) with
        | Some srv, Some p ->
            (* This tenant's slice of the outside world advances... *)
            (match Hashtbl.find_opt loads pid with
            | Some lg -> Loadgen.tick lg
            | None -> ());
            (* ...its server runs one turn of its readiness loop... *)
            ignore (Evloop.step (Kvserver.ev srv) ~maxev:64);
            (* ...and it churns its mmap scratch, putting the MMU
               mediation boundary on the hot path. *)
            for _ = 1 to scratch_iters do
              match
                Syscalls.mmap k p
                  ~len:(scratch_pages * Addr.page_size)
                  ~rw:true ~populate:true ()
              with
              | Ok va -> ignore (Syscalls.munmap k p va)
              | Error _ -> ()
            done;
            (* Heartbeat to the successor over the mediated pipe, drain
               whatever the predecessor sent (pipes are directed i ->
               i+1, so a tenant sends forward and receives from
               behind). *)
            (match k.Kernel.nk with
            | Some nk when isolated && tenants > 1 ->
                let d = Kernel.proc_domain p in
                let dst, src =
                  let rec find i =
                    if i >= tenants then (d, d)
                    else if domains.(i) = d then
                      ( domains.((i + 1) mod tenants),
                        domains.((i + tenants - 1) mod tenants) )
                    else find (i + 1)
                  in
                  find 0
                in
                (match Nested_kernel.Api.nk_pipe_send nk ~dst !pipe_words with
                | Ok () -> incr pipe_words
                | Error _ -> ());
                ignore (Nested_kernel.Api.nk_pipe_recv nk ~src)
            | _ -> ());
            true
        | _ -> true)
  in
  let cycles = Window.cycles w in
  let _, audit_failures = Harness.close h in
  let p50, p99, p999 =
    match Nktrace.histogram m.Machine.trace Loadgen.hist_name with
    | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.p999)
    | None -> (0, 0, 0)
  in
  let per_tenant =
    Hashtbl.fold
      (fun pid srv acc ->
        let lg = Hashtbl.find loads pid in
        let domain =
          match Kernel.proc k pid with
          | Some p -> Kernel.proc_domain p
          | None -> 0
        in
        {
          t_domain = domain;
          t_pid = pid;
          t_completed = Loadgen.completed lg;
          t_gets = Kvserver.gets srv;
          t_sets = Kvserver.sets srv;
          t_live_peak = Loadgen.live_peak lg;
        }
        :: acc)
      servers []
    |> List.sort (fun a b -> compare a.t_pid b.t_pid)
  in
  let completed = List.fold_left (fun a t -> a + t.t_completed) 0 per_tenant in
  (* Tear every tenant down through the full accounting path; what the
     nested kernel still finds owner-marked is an outer-kernel leak.
     The oracle stays armed, so violations are read afterwards. *)
  let teardown_leaks =
    if isolated then
      Array.fold_left
        (fun acc domain ->
          match Kernel.destroy_domain k ~domain with
          | Ok leaked -> acc + leaked
          | Error _ -> acc)
        0 domains
    else 0
  in
  {
    config;
    tenants;
    conns;
    seed;
    steps = taken;
    per_tenant;
    completed;
    p50;
    p99;
    p999;
    throughput =
      (if cycles = 0 then 0.0
       else 1_000_000.0 *. float_of_int completed /. float_of_int cycles);
    xdom_denials = Window.count w Nktrace.Xdom_denied;
    vmcalls = Window.count w Nktrace.Vmcall;
    sched_epochs = Window.count w Nktrace.Sched_epoch;
    pipe_words = !pipe_words;
    teardown_leaks;
    cycles;
    host_secs = Sys.time () -. host0;
    oracle_violations = Harness.violations h;
    audit_failures;
  }

let run ?seed ?(tenant_counts = tenant_counts) ?(conns = default_conns) () =
  let seed = match seed with Some s -> s | None -> Harness.env_seed () in
  List.concat_map
    (fun tenants ->
      List.map
        (fun config -> run_one ~seed ~tenants ~conns ~config ())
        configs)
    tenant_counts

let to_table points =
  {
    Stats.title =
      Printf.sprintf
        "Multi-tenant serving: N tenant domains, %d vCPUs, per-domain \
         credits (sched seed %d)"
        cpus
        (match points with p :: _ -> p.seed | [] -> Harness.default_seed);
    columns =
      [
        "config"; "tenants"; "conns/t"; "reqs"; "req/Mcyc"; "p50"; "p99";
        "p999"; "denials"; "vmcalls"; "epochs"; "pipe"; "leaks"; "oracle";
        "audit";
      ];
    rows =
      List.map
        (fun p ->
          [
            Config.name p.config;
            string_of_int p.tenants;
            string_of_int p.conns;
            string_of_int p.completed;
            Printf.sprintf "%.2f" p.throughput;
            string_of_int p.p50;
            string_of_int p.p99;
            string_of_int p.p999;
            string_of_int p.xdom_denials;
            string_of_int p.vmcalls;
            string_of_int p.sched_epochs;
            string_of_int p.pipe_words;
            string_of_int p.teardown_leaks;
            string_of_int p.oracle_violations;
            string_of_int p.audit_failures;
          ])
        points;
    notes =
      [
        "each tenant: own domain, own listener, own load; per quantum it \
         also churns an mmap/touch/munmap scratch so MMU mediation is on \
         the hot path";
        "hyper = simulated hypervisor baseline: every mediated MMU op pays \
         the VMCALL round trip, PCID off (full flush per switch)";
        "denials are cross-domain rejections the nested kernel counted; \
         any nonzero leak/oracle/audit cell is a bug";
      ];
  }
