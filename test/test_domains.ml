(* Tenant domains in the outer kernel: teardown resource accounting
   (create -> serve -> teardown -> recreate leaves byte-identical
   free-frame and fd-table state), deferred-unmap draining at destroy,
   the partitioned ASID pool (fail-closed, flush-before-handout),
   per-domain scheduler credits, seeded determinism of the
   multi-tenant workload, and cross-domain denial accounting. *)
open Nkhw
open Outer_kernel
open Nk_workloads

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "domains: %s" (Ktypes.errno_to_string e)

let boot ?(cpus = 1) ?(domains = 2) ?coherence () =
  Os.boot ~frames:4096 ~batched:true ~trace:true ~cpus ~domains ?coherence
    Config.Perspicuos

(* Everything a tenant's lifetime may consume: the free-frame bitmap,
   and each surviving process's fd numbers, pid-ordered.  Rendered as
   one string so "byte-identical" is literal. *)
let snapshot k =
  let fa = k.Kernel.falloc in
  let b = Buffer.create 1024 in
  let first = Frame_alloc.first_frame fa in
  for f = first to first + Frame_alloc.total fa - 1 do
    Buffer.add_char b (if Frame_alloc.is_free fa f then '.' else '#')
  done;
  Hashtbl.fold (fun pid _ acc -> pid :: acc) k.Kernel.procs []
  |> List.sort compare
  |> List.iter (fun pid ->
         let p = Option.get (Kernel.proc k pid) in
         Buffer.add_string b (Printf.sprintf "|%d:" pid);
         let fds = ref [] in
         Fdtable.iter (fun fd _ -> fds := fd :: !fds) p.Proc.fds;
         List.iter
           (fun fd -> Buffer.add_string b (string_of_int fd ^ ","))
           (List.sort compare !fds));
  Buffer.contents b

(* One full tenant lifetime: create a domain, fork and adopt a server
   process, serve real traffic (listener, epoll loop, connection churn)
   while churning an mmap scratch under the tenant's own authority,
   then tear the domain down through the accounting path. *)
let cycle k =
  let m = k.Kernel.machine in
  let p0 = Option.get (Kernel.proc k 1) in
  let domain = ok (Kernel.create_domain k) in
  let pid = ok (Syscalls.fork k p0) in
  let p = Option.get (Kernel.proc k pid) in
  ok (Kernel.adopt_domain k p ~domain);
  ok (Kernel.switch_to k pid);
  let srv = Kvserver.create ~backlog:64 ~accept_burst:16 k p in
  let lg =
    Loadgen.create m
      (Evloop.listener (Kvserver.ev srv))
      {
        Loadgen.seed = Helpers.sched_seed;
        conns = 32;
        active = 16;
        slow = 1;
        slow_chunk = Kvserver.req_bytes / 8;
        ramp_per_tick = 8;
        keepalive = 4;
        think_max = 8;
        gen = Kvserver.gen;
      }
  in
  for _ = 1 to 30 do
    Loadgen.tick lg;
    ignore (Evloop.step (Kvserver.ev srv) ~maxev:32);
    match
      Syscalls.mmap k p ~len:(4 * Addr.page_size) ~rw:true ~populate:true ()
    with
    | Ok va -> ignore (Syscalls.munmap k p va)
    | Error _ -> ()
  done;
  let leaked = ok (Kernel.destroy_domain k ~domain) in
  ok (Kernel.switch_to k 1);
  leaked

let test_teardown_cycle_identity () =
  let k = boot () in
  Alcotest.(check int) "first lifetime leaks nothing" 0 (cycle k);
  let s1 = snapshot k in
  Alcotest.(check int) "second lifetime leaks nothing" 0 (cycle k);
  let s2 = snapshot k in
  Alcotest.(check string)
    "free-frame and fd-table state byte-identical across lifetimes" s1 s2;
  (match k.Kernel.nk with
  | Some nk ->
      Alcotest.(check int) "audit clean after both teardowns" 0
        (List.length (Nested_kernel.Api.audit nk))
  | None -> ())

let test_destroy_drains_deferred () =
  (* Api-level so attribution is exact: every deferred record below
     belongs to the tenant, and destroy must drain them all — no
     tolerated staleness survives the domain it was tolerated for. *)
  let _m, nk = Helpers.booted_nk () in
  let o = Nested_kernel.Api.outer_first_frame nk in
  let domain, token = Result.get_ok (Nested_kernel.Api.nk_domain_create nk) in
  Helpers.check_ok_nk "enter"
    (Nested_kernel.Api.nk_domain_enter nk ~domain ~token);
  (* A full chain down from a level-4 root: an unlinked table has no
     flush positions, so its unmaps are flushed eagerly — only a leaf
     reachable from a root earns a deferred record. *)
  let link_flags =
    { Pte.no_flags with Pte.present = true; writable = true; user = true }
  in
  List.iter
    (fun level ->
      Helpers.check_ok_nk "declare"
        (Nested_kernel.Api.declare_ptp nk ~level (o + 4 - level)))
    [ 4; 3; 2; 1 ];
  List.iter
    (fun ptp ->
      Helpers.check_ok_nk "link"
        (Nested_kernel.Api.write_pte nk ~ptp ~index:0
           (Pte.make ~frame:(ptp + 1) link_flags)))
    [ o; o + 1; o + 2 ];
  Helpers.check_ok_nk "map"
    (Nested_kernel.Api.write_pte nk ~ptp:(o + 3) ~index:0
       (Pte.make ~frame:(o + 4) Pte.user_rw_nx));
  Helpers.check_ok_nk "unmap"
    (Nested_kernel.Api.write_pte nk ~ptp:(o + 3) ~index:0 Pte.empty);
  Alcotest.(check bool) "unmap left deferred records" true
    (Nested_kernel.Api.nk_deferred_live nk > 0);
  (match Nested_kernel.Api.nk_domain_destroy nk ~domain with
  | Ok leaked ->
      (* Four PTPs it declared plus the data frame it claimed were
         never freed by anyone: five leaks to the tenant's account. *)
      Alcotest.(check int) "leak accounting names every frame" 5 leaked
  | Error e ->
      Alcotest.failf "destroy: %s" (Nested_kernel.Nk_error.to_string e));
  Alcotest.(check int) "destroy drained the tenant's deferred unmaps" 0
    (Nested_kernel.Api.nk_deferred_live nk);
  Alcotest.(check int) "audit clean after drain" 0
    (List.length (Nested_kernel.Api.audit nk))

let test_asid_partitions_disjoint () =
  let m = Helpers.machine () in
  (* 5 slots: slot 0 is the kernel's, 1..4 split into two 2-slot
     partitions. *)
  let pool = Asid_pool.create ~size:5 ~domains:2 m in
  Alcotest.(check int) "two partitions" 2 (Asid_pool.partitions pool);
  let lo1, hi1 = Option.get (Asid_pool.partition_range pool ~domain:1) in
  let lo0, hi0 = Option.get (Asid_pool.partition_range pool ~domain:0) in
  Alcotest.(check bool) "partitions disjoint" true (hi0 < lo1 || hi1 < lo0);
  (* Fill domain 1's partition, then keep allocating: every tag —
     including stolen ones — stays inside its own range. *)
  for _ = 1 to 2 + (hi1 - lo1 + 1) do
    match Asid_pool.alloc ~domain:1 pool with
    | Some (asid, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "asid %d within [%d,%d]" asid lo1 hi1)
          true
          (asid >= lo1 && asid <= hi1)
    | None -> Alcotest.fail "non-empty partition must allocate"
  done

let test_asid_empty_partition_fails_closed () =
  let m = Helpers.machine () in
  (* 3 slots over 4 partitions: at least two domains get no slots at
     all; their allocations must fail closed, never borrow a peer's. *)
  let pool = Asid_pool.create ~size:3 ~domains:4 m in
  let empty =
    List.filter
      (fun d -> Asid_pool.partition_range pool ~domain:d = None)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "some partition is empty" true (empty <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d fails closed" d)
        true
        (Asid_pool.alloc ~domain:d pool = None))
    empty

let test_asid_steal_flushes_before_handout () =
  let m = Helpers.machine () in
  let pool = Asid_pool.create ~size:5 ~domains:2 m in
  let lo, hi = Option.get (Asid_pool.partition_range pool ~domain:1) in
  for _ = lo to hi do
    ignore (Asid_pool.alloc ~domain:1 pool)
  done;
  (* Mark every tag in the partition TLB-resident somewhere; the steal
     must shoot the recycled tag down before handing it out. *)
  for a = lo to hi do
    m.Machine.asid_residency.(a) <- 0b1
  done;
  let stolen, _ = Option.get (Asid_pool.alloc ~domain:1 pool) in
  Alcotest.(check int)
    (Printf.sprintf "stolen asid %d no longer resident anywhere" stolen)
    0
    m.Machine.asid_residency.(stolen)

let test_credit_starvation_bound () =
  let k = boot ~domains:2 () in
  let p0 = Option.get (Kernel.proc k 1) in
  let dom_h = ok (Kernel.create_domain k) in
  let dom_v = ok (Kernel.create_domain k) in
  let adopt_new domain =
    let pid = ok (Syscalls.fork k p0) in
    ok (Kernel.adopt_domain k (Option.get (Kernel.proc k pid)) ~domain);
    pid
  in
  let hostiles = List.init 6 (fun _ -> adopt_new dom_h) in
  let victim = adopt_new dom_v in
  let s = Sched.create k in
  Sched.set_domain_credits s ~quantum:2;
  List.iter (Sched.add s) hostiles;
  Sched.add s victim;
  let victim_runs = ref 0 and total = ref 0 in
  ignore
    (Sched.run_until s ~steps:120 (fun pid ->
         incr total;
         if pid = victim then incr victim_runs;
         true));
  (* Three domains share the queue (host pid 1 is seeded); credits
     must hold the lone victim within 2x of its 1/3 fair share even
     against six hostile runnables. *)
  Alcotest.(check bool)
    (Printf.sprintf "victim ran %d of %d quanta" !victim_runs !total)
    true
    (!victim_runs * 6 >= !total);
  let epochs =
    Nktrace.counter_value k.Kernel.machine.Machine.trace Nktrace.Sched_epoch
  in
  Alcotest.(check bool) "credit epochs cycled" true (epochs > 0)

let test_multitenant_seeded_determinism () =
  let run () =
    let p =
      Multitenant.run_one ~seed:Helpers.sched_seed ~tenants:2 ~conns:48
        ~config:Config.Perspicuos ()
    in
    (* Everything but the host wallclock must reproduce bit-for-bit. *)
    ( p.Multitenant.completed,
      p.Multitenant.cycles,
      p.Multitenant.p50,
      p.Multitenant.p99,
      p.Multitenant.xdom_denials,
      p.Multitenant.pipe_words,
      p.Multitenant.teardown_leaks,
      p.Multitenant.sched_epochs )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same point" true (a = b);
  let completed, _, _, _, denials, _, leaks, _ = a in
  Alcotest.(check bool) "tenants actually served" true (completed > 0);
  Alcotest.(check int) "clean run counts no denials" 0 denials;
  Alcotest.(check int) "clean run leaks nothing" 0 leaks

let test_migration_mid_batch_oracle () =
  let k = boot ~cpus:2 ~domains:2 ~coherence:true () in
  let p0 = Option.get (Kernel.proc k 1) in
  let domain = ok (Kernel.create_domain k) in
  let pid = ok (Syscalls.fork k p0) in
  let p = Option.get (Kernel.proc k pid) in
  ok (Kernel.adopt_domain k p ~domain);
  let s = Sched.create k in
  Sched.set_domain_credits s ~quantum:2;
  Sched.add s pid;
  let hops = ref 0 in
  ignore
    (Sched.run_smp s
       ~policy:(Nkhw.Smp.Executor.Seeded Helpers.sched_seed)
       ~steps:60
       (fun ~cpu pid' ->
         if pid' = pid then begin
           (* Map, migrate mid-lifetime, then unmap from the other
              CPU: the tenant's deferred shootdown must still cover
              every CPU its stale translation could survive on. *)
           match
             Syscalls.mmap k p ~len:Addr.page_size ~rw:true ~populate:true ()
           with
           | Ok va ->
               incr hops;
               ignore (Sched.migrate s pid ~to_cpu:(1 - cpu));
               ignore (Syscalls.munmap k p va)
           | Error _ -> ()
         end;
         true));
  Alcotest.(check bool) "tenant migrated mid-batch" true (!hops > 0);
  let nk = Option.get k.Kernel.nk in
  Alcotest.(check int) "oracle saw no stale-permissive translation" 0
    (List.length (Nested_kernel.Api.Diagnostics.Coherence.snapshot nk));
  Alcotest.(check int) "no denials under its own authority" 0
    (Nested_kernel.Api.nk_domain_denials nk domain)

let test_denial_counters () =
  let _m, nk = Helpers.booted_nk () in
  let o = Nested_kernel.Api.outer_first_frame nk in
  let dom_a, tok_a = Result.get_ok (Nested_kernel.Api.nk_domain_create nk) in
  let dom_b, tok_b = Result.get_ok (Nested_kernel.Api.nk_domain_create nk) in
  (* B declares a table and claims a data frame. *)
  Helpers.check_ok_nk "enter B"
    (Nested_kernel.Api.nk_domain_enter nk ~domain:dom_b ~token:tok_b);
  Helpers.check_ok_nk "declare ptb"
    (Nested_kernel.Api.declare_ptp nk ~level:1 o);
  Helpers.check_ok_nk "B claims a frame"
    (Nested_kernel.Api.write_pte nk ~ptp:o ~index:0
       (Pte.make ~frame:(o + 2) Pte.user_rw_nx));
  Alcotest.(check int) "claim recorded" dom_b
    (Nested_kernel.Api.nk_frame_owner nk (o + 2));
  (* A tries to map it; the denial is typed and counted against A. *)
  Helpers.check_ok_nk "enter A"
    (Nested_kernel.Api.nk_domain_enter nk ~domain:dom_a ~token:tok_a);
  Helpers.check_ok_nk "declare pta"
    (Nested_kernel.Api.declare_ptp nk ~level:1 (o + 1));
  (match
     Nested_kernel.Api.write_pte nk ~ptp:(o + 1) ~index:0
       (Pte.make ~frame:(o + 2) Pte.user_rw_nx)
   with
  | Error (Nested_kernel.Nk_error.Cross_domain { domain; owner; _ }) ->
      Alcotest.(check int) "attributed to A" dom_a domain;
      Alcotest.(check int) "names B as owner" dom_b owner
  | Ok () -> Alcotest.fail "cross-domain map must be denied"
  | Error e ->
      Alcotest.failf "expected Cross_domain, got %s"
        (Nested_kernel.Nk_error.to_string e));
  Alcotest.(check int) "denial counted against A" 1
    (Nested_kernel.Api.nk_domain_denials nk dom_a);
  Alcotest.(check int) "none against B" 0
    (Nested_kernel.Api.nk_domain_denials nk dom_b)

let suite =
  [
    Alcotest.test_case "teardown cycle leaves byte-identical state" `Quick
      test_teardown_cycle_identity;
    Alcotest.test_case "destroy drains the tenant's deferred unmaps" `Quick
      test_destroy_drains_deferred;
    Alcotest.test_case "ASID partitions are disjoint, steals stay inside"
      `Quick test_asid_partitions_disjoint;
    Alcotest.test_case "empty ASID partition fails closed" `Quick
      test_asid_empty_partition_fails_closed;
    Alcotest.test_case "ASID steal flushes before handout" `Quick
      test_asid_steal_flushes_before_handout;
    Alcotest.test_case "credits bound tenant starvation" `Quick
      test_credit_starvation_bound;
    Alcotest.test_case "multitenant point reproduces under its seed" `Quick
      test_multitenant_seeded_determinism;
    Alcotest.test_case "mid-batch migration stays coherent" `Quick
      test_migration_mid_batch_oracle;
    Alcotest.test_case "cross-domain denials typed and counted" `Quick
      test_denial_counters;
  ]
