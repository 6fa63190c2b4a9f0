open Nkhw
open Nested_kernel

let setup () =
  let m, nk = Helpers.booted_nk () in
  let smp = Smp.create m in
  (m, nk, smp)

(* Give an application processor a kernel stack (the last outer frames
   double as per-CPU idle stacks in these tests). *)
let give_stack m ~id =
  let top = Phys_mem.num_frames m.Machine.mem - 1 - id in
  Cpu_state.set m.Machine.cpu Insn.RSP (Addr.kva_of_frame top + Addr.page_size)

let test_bring_up () =
  let m, _, smp = setup () in
  Alcotest.(check int) "one cpu at boot" 1 (Smp.cpu_count smp);
  let ap = Smp.add_cpu smp in
  Alcotest.(check int) "two cpus" 2 (Smp.cpu_count smp);
  Alcotest.(check int) "bsp active" 0 (Smp.active smp);
  Alcotest.(check int) "one peer tlb" 1 (Array.length m.Machine.peer_tlbs);
  Smp.activate smp ap;
  Alcotest.(check int) "ap active" ap (Smp.active smp);
  Alcotest.(check bool) "ap inherited paging-on CRs" true
    (Cr.long_mode_paging m.Machine.cr && Cr.wp_enabled m.Machine.cr)

let test_register_isolation () =
  let m, _, smp = setup () in
  let ap = Smp.add_cpu smp in
  Cpu_state.set m.Machine.cpu Insn.RAX 111;
  Smp.activate smp ap;
  Alcotest.(check int) "fresh registers" 0 (Cpu_state.get m.Machine.cpu Insn.RAX);
  Cpu_state.set m.Machine.cpu Insn.RAX 222;
  Smp.activate smp 0;
  Alcotest.(check int) "bsp registers restored" 111
    (Cpu_state.get m.Machine.cpu Insn.RAX);
  Smp.activate smp ap;
  Alcotest.(check int) "ap registers survived parking" 222
    (Cpu_state.get m.Machine.cpu Insn.RAX)

let test_cr_is_per_cpu () =
  let m, _, smp = setup () in
  let ap = Smp.add_cpu smp in
  (* Clear WP on the AP; the BSP must be unaffected. *)
  Smp.activate smp ap;
  m.Machine.cr.Cr.cr0 <- m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp;
  Smp.activate smp 0;
  Alcotest.(check bool) "bsp WP still set" true (Cr.wp_enabled m.Machine.cr);
  Smp.activate smp ap;
  Alcotest.(check bool) "ap WP still clear" false (Cr.wp_enabled m.Machine.cr)

let test_i13_cross_cpu_stack_write () =
  (* The exact attack of section 3.6.3: CPU 1 is inside the nested
     kernel (its WP clear); CPU 0, running outer-kernel code with WP
     set, tries to corrupt the nested-kernel stack so CPU 1 returns
     into attacker-chosen code.  The store must fault. *)
  let m, nk, smp = setup () in
  let ap = Smp.add_cpu smp in
  Smp.activate smp ap;
  give_stack m ~id:ap;
  (match Gate.enter m nk.State.gate with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter on the AP");
  Alcotest.(check bool) "AP has WP clear inside the NK" false
    (Cr.wp_enabled m.Machine.cr);
  let stack_slot = nk.State.gate.Gate.secure_stack_top - 8 in
  Smp.with_cpu smp 0 (fun () ->
      Helpers.expect_fault "CPU 0 cannot touch the NK stack (I13)"
        (Machine.kwrite_u64 m stack_slot 0x41414141));
  (* CPU 1 exits unharmed. *)
  (match Gate.exit_ m nk.State.gate with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "exit on the AP");
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_shootdown_reaches_parked_cpus () =
  let m, nk, smp = setup () in
  let ap = Smp.add_cpu smp in
  let frame = Api.outer_first_frame nk in
  let va = Addr.kva_of_frame frame in
  (* The AP warms a writable translation, then parks. *)
  Smp.with_cpu smp ap (fun () ->
      Helpers.check_ok "warm write" (Machine.kwrite_u64 m va 1));
  (* The BSP asks the nested kernel to protect the page: the
     downgrade must shoot down the parked AP's TLB too. *)
  let _ =
    Result.get_ok
      (Api.nk_declare nk ~base:va ~size:32 Nested_kernel.Policy.no_write)
  in
  Smp.with_cpu smp ap (fun () ->
      Helpers.expect_fault "no stale entry on the AP"
        (Machine.kwrite_u64 m va 2))

let test_shootdown_cost_scales_with_cpus () =
  let m, nk, smp = setup () in
  ignore (Smp.add_cpu smp);
  ignore (Smp.add_cpu smp);
  ignore (Smp.add_cpu smp);
  let frame = Api.outer_first_frame nk in
  ignore (Result.get_ok (Api.declare_ptp nk ~level:1 frame));
  (* A downgrade (unmap) pays one IPI per peer CPU. *)
  ignore
    (Result.get_ok
       (Api.write_pte nk ~ptp:frame ~index:0
          (Pte.make ~frame:(frame + 1) Pte.user_rw_nx)));
  let w = Window.start m in
  ignore (Result.get_ok (Api.write_pte nk ~ptp:frame ~index:0 Pte.empty));
  let cost = Window.cycles w in
  Alcotest.(check bool)
    (Printf.sprintf "3 IPIs charged (got %d cycles)" cost)
    true
    (cost >= 3 * m.Machine.costs.Costs.ipi_shootdown)

let test_nk_lock_excludes_second_cpu () =
  (* Paper 3.10: one nested-kernel stack protected by a lock. *)
  let m, nk, smp = setup () in
  let ap = Smp.add_cpu smp in
  Smp.activate smp ap;
  give_stack m ~id:ap;
  (match Gate.enter m nk.State.gate with
  | Ok () -> nk.State.lock_held <- true
  | Error _ -> Alcotest.fail "enter");
  Smp.with_cpu smp 0 (fun () ->
      match Api.nk_null nk with
      | Error Nk_error.Reentrant_call -> ()
      | Ok () | Error _ ->
          Alcotest.fail "second CPU entered the NK concurrently");
  nk.State.lock_held <- false;
  match Gate.exit_ m nk.State.gate with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "exit"

let test_ipi_mailbox () =
  let _, _, smp = setup () in
  let ap = Smp.add_cpu smp in
  Smp.send_ipi smp ~target:ap Smp.Reschedule;
  Smp.send_ipi smp ~target:ap Smp.Shootdown;
  Smp.send_ipi smp ~target:ap Smp.Halt;
  Alcotest.(check int) "three pending" 3 (Smp.pending_ipis smp ap);
  Alcotest.(check int) "shootdown acknowledged on receipt" 1
    (Smp.shootdowns_rx smp ap);
  let drained = Smp.drain_ipis smp ap in
  Alcotest.(check bool) "drained in arrival order" true
    (drained = [ Smp.Reschedule; Smp.Shootdown; Smp.Halt ]);
  Alcotest.(check int) "mailbox empty" 0 (Smp.pending_ipis smp ap);
  Alcotest.(check bool) "halt applied at drain" true (Smp.halted smp ap);
  Smp.send_ipi smp ~target:ap Smp.Reschedule;
  Alcotest.(check bool) "reschedule wakes a halted CPU" false
    (Smp.halted smp ap)

let test_borrow_is_not_migration () =
  let m, _, smp = setup () in
  let ap = Smp.add_cpu smp in
  let w = Window.start m in
  Smp.with_cpu smp ap (fun () -> ());
  Alcotest.(check int) "borrow round trip counts no migration" 0
    (Window.count w Nktrace.Cpu_migration);
  Alcotest.(check int) "borrow counted once" 1
    (Window.count w Nktrace.Cpu_borrow);
  Smp.activate smp ap;
  Alcotest.(check int) "real migration still counted" 1
    (Window.count w Nktrace.Cpu_migration)

let exec_sequence policy steps =
  let _, _, smp = setup () in
  for _ = 2 to 4 do
    ignore (Smp.add_cpu smp)
  done;
  let seq = ref [] in
  let e = Smp.Executor.create smp policy in
  ignore
    (Smp.Executor.run e ~max_steps:steps
       ~quantum:(fun cpu ->
         seq := cpu :: !seq;
         `Ran)
       ());
  List.rev !seq

let test_executor_round_robin () =
  Alcotest.(check (list int))
    "strict rotation over live CPUs"
    [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (exec_sequence Smp.Executor.Round_robin 8)

let test_executor_seeded_deterministic () =
  let a = exec_sequence (Smp.Executor.Seeded 42) 32 in
  let b = exec_sequence (Smp.Executor.Seeded 42) 32 in
  Alcotest.(check (list int)) "same seed, same interleaving" a b;
  let c = exec_sequence (Smp.Executor.Seeded 43) 32 in
  Alcotest.(check bool) "neighbouring seed diverges" true (a <> c)

let test_executor_halts () =
  let _, _, smp = setup () in
  ignore (Smp.add_cpu smp);
  let e = Smp.Executor.create smp Smp.Executor.Round_robin in
  let n = Smp.Executor.run e ~quantum:(fun _ -> `Halted) () in
  Alcotest.(check int) "each CPU halted after one quantum" 2 n;
  Alcotest.(check int) "steps recorded" 2 (Smp.Executor.steps e);
  Alcotest.(check bool) "all halted" true
    (Smp.halted smp 0 && Smp.halted smp 1)

let test_wp_isolation_invariant () =
  (* Serialized gate crossings on two CPUs never relax the other CPU's
     WP; an attacker clearing a parked CPU's WP is flagged by the
     audit at the next crossing. *)
  let m, nk, smp = setup () in
  let ap = Smp.add_cpu smp in
  let g = nk.State.gate in
  let cross who =
    (match Gate.enter m g with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "enter on %s" who);
    match Gate.exit_ m g with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "exit on %s" who
  in
  cross "bsp";
  Smp.activate smp ap;
  give_stack m ~id:ap;
  cross "ap";
  Alcotest.(check int) "no cross-CPU WP relaxation" 0
    g.Gate.wp_isolation_failures;
  Smp.with_cpu smp 0 (fun () ->
      m.Machine.cr.Cr.cr0 <- m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp);
  (match Gate.enter m g with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter with a relaxed peer");
  Alcotest.(check bool) "relaxed peer WP is flagged" true
    (g.Gate.wp_isolation_failures > 0)

let suite =
  [
    Alcotest.test_case "bring-up" `Quick test_bring_up;
    Alcotest.test_case "register isolation" `Quick test_register_isolation;
    Alcotest.test_case "CR0 is per-CPU" `Quick test_cr_is_per_cpu;
    Alcotest.test_case "I13: cross-CPU stack write faults" `Quick
      test_i13_cross_cpu_stack_write;
    Alcotest.test_case "shootdowns reach parked CPUs" `Quick
      test_shootdown_reaches_parked_cpus;
    Alcotest.test_case "shootdown cost scales" `Quick
      test_shootdown_cost_scales_with_cpus;
    Alcotest.test_case "NK stack lock excludes other CPUs" `Quick
      test_nk_lock_excludes_second_cpu;
    Alcotest.test_case "IPI mailbox semantics" `Quick test_ipi_mailbox;
    Alcotest.test_case "with_cpu borrow is not a migration" `Quick
      test_borrow_is_not_migration;
    Alcotest.test_case "executor: round-robin rotation" `Quick
      test_executor_round_robin;
    Alcotest.test_case "executor: seeded and deterministic" `Quick
      test_executor_seeded_deterministic;
    Alcotest.test_case "executor: halt protocol" `Quick test_executor_halts;
    Alcotest.test_case "I13: open gate never relaxes a peer's WP" `Quick
      test_wp_isolation_invariant;
  ]
