(* SMP scaling workload: the same process mix driven across 1..8
   vCPUs by the deterministic executor.  Everything measured here is
   simulated-cycle arithmetic, so a fixed seed reproduces the numbers
   byte-for-byte. *)

open Outer_kernel

type point = {
  cpus : int;
  seed : int;
  steps : int;
  syscalls : int;
  cycles : int;
  throughput : float;
  shootdowns : int list;
  ipis : int;
  sent : int;
  filtered : int;
  coalesced : int;
  deferred : int;
  reuse : int;
  steals : int;
  migrations : int;
  oracle_violations : int;
  audit_failures : int;
}

let run_one ?(seed = Harness.default_seed) ?(procs = 8) ?(steps = 4000)
    ?(coherence = false) cpus =
  (* The batched vMMU backend is the whole point at scale: without it
     fork's COW downgrades go through per-PTE writes and the per-batch
     shootdown coalescer never runs at all. *)
  let k = Os.boot ~batched:true ~cpus Config.Perspicuos in
  let h = Harness.arm ~oracle:coherence k in
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  for _ = 2 to procs do
    match Syscalls.fork k p0 with
    (* Pile every child onto the boot CPU: the idle APs must pull work
       over for themselves, so stealing (and the cross-CPU traffic it
       causes) is actually exercised instead of balanced away. *)
    | Ok pid -> Sched.add_on sched pid 0
    | Error _ -> ()
  done;
  let w = Nkhw.Window.start k.Kernel.machine in
  let tick = ref 0 in
  let taken =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps
      (fun ~cpu:_ pid ->
        incr tick;
        (match Kernel.proc k pid with
        | None -> ()
        | Some p ->
            ignore (Syscalls.getpid k p);
            (* Every few quanta, an mmap/munmap pair: the unmap's TLB
               shootdown is what the extra CPUs have to absorb. *)
            if !tick mod 4 = 0 then
              (match Syscalls.mmap k p ~len:4096 ~rw:true ~populate:true () with
              | Ok va -> ignore (Syscalls.munmap k p va)
              | Error _ -> ());
            (* Forks on the first quanta of the measured window: the
               COW downgrade walks the parent's writable pages rw ->
               ro in one batch, which is the traffic the per-batch
               shootdown coalescer exists for (unmaps take the
               deferred path instead and never reach it).  The 8-page
               rw region mapped first guarantees contiguous downgrades
               to merge.  The very first ticks, because the forking
               ASID is then still resident on at most the boot CPU —
               a few quanta later every proc has migrated, and each
               downgrade span fans out to all the CPUs it visited, a
               cost that grows with the CPU count and drowns the
               scaling signal.  Like the setup forks, the children are
               never scheduled (and never exit): reaping one tears its
               tables down through broadcast flushes on every CPU.
               The region stays mapped for the same reason — its
               frames are share-held by the child, so an unmap would
               defer 8 flushes that can never hit a reuse barrier and
               all fire (cross-CPU) in the final drain instead. *)
            if !tick <= 2 then
              match
                Syscalls.mmap k p ~len:(8 * 4096) ~rw:true ~populate:true ()
              with
              | Error _ -> ()
              | Ok _ -> ignore (Syscalls.fork k p));
        true)
  in
  (* The close-out drains the deferred-unmap queue before the books
     close: whatever is still queued was deferred but never reached a
     reuse barrier, and the final defer/reuse counters must account
     for every record (defer = reuse), not all-but-the-last-batch.
     The window stays open through it. *)
  let oracle_violations, audit_failures = Harness.close h in
  let count = Nkhw.Window.count w in
  let syscalls = count Nktrace.Syscall in
  let cycles = Nkhw.Window.cycles w in
  {
    cpus;
    seed;
    steps = taken;
    syscalls;
    cycles;
    throughput = float_of_int syscalls /. (float_of_int cycles /. 1e6);
    shootdowns =
      List.init cpus (fun id -> Nkhw.Smp.shootdowns_rx k.Kernel.smp id);
    ipis = count Nktrace.Ipi_shootdown;
    sent = count Nktrace.Shootdown_sent;
    filtered = count Nktrace.Shootdown_filtered;
    coalesced = count Nktrace.Shootdown_coalesced;
    deferred = count Nktrace.Flush_deferred;
    reuse = count Nktrace.Flush_on_reuse;
    steals = count Nktrace.Sched_steal;
    migrations = count Nktrace.Cpu_migration;
    oracle_violations;
    audit_failures;
  }

let cpu_counts = [ 1; 2; 4; 8 ]

let run ?seed ?procs ?steps ?coherence () =
  let seed = match seed with Some s -> s | None -> Harness.env_seed () in
  List.map (fun cpus -> run_one ~seed ?procs ?steps ?coherence cpus) cpu_counts

let to_table points =
  {
    Stats.title =
      Printf.sprintf
        "SMP scaling: identical workload, 1..8 vCPUs (sched seed %d)"
        (match points with p :: _ -> p.seed | [] -> Harness.default_seed);
    columns =
      [
        "CPUs"; "syscalls"; "Mcycles"; "sys/Mcycle"; "shootdowns rx/CPU";
        "sent"; "filt"; "coal"; "defer"; "steals"; "migr";
      ];
    rows =
      List.map
        (fun p ->
          [
            string_of_int p.cpus;
            string_of_int p.syscalls;
            Printf.sprintf "%.2f" (float_of_int p.cycles /. 1e6);
            Printf.sprintf "%.1f" p.throughput;
            String.concat "/" (List.map string_of_int p.shootdowns);
            string_of_int p.sent;
            string_of_int p.filtered;
            string_of_int p.coalesced;
            string_of_int p.deferred;
            string_of_int p.steals;
            string_of_int p.migrations;
          ])
        points;
    notes =
      [
        "single simulated clock: cycles accumulate across all CPUs, so \
         sys/Mcycle is whole-system efficiency, not per-CPU speedup";
        "unmap shootdowns are residency-filtered, span-coalesced per batch \
         and lazily deferred to frame reuse -- sent/filt/coal/defer count \
         what each mechanism did (section 3.10 extension)";
      ];
  }
