open Nkhw
open Nested_kernel

(* Gate behaviour is tested on a fully booted nested kernel so the
   MMU protections the gates interact with are real. *)
let setup () = Helpers.booted_nk ()

let gate_of (nk : Api.t) = nk.State.gate

(* Installing keeps the last assembly for reuse: every install must
   still write the bytes its own [secure_stack_top] assembles to,
   including a return to a top assembled before. *)
let test_install_reuses_matching_assembly () =
  let installed_bytes ~top =
    let mem = Phys_mem.create ~frames:4 in
    let g =
      Gate.install mem ~code_base_pa:0x1000 ~code_base_va:0x1000
        ~secure_stack_top:top
    in
    Bytes.to_string (Phys_mem.read_bytes mem 0x1000 g.Gate.code_len)
  in
  let fresh ~top =
    String.concat ""
      (List.map
         (fun code -> Bytes.to_string (Insn.assemble code))
         [
           Gate.entry_gate_code ~secure_stack_top:top;
           Gate.exit_gate_code ();
           Gate.trap_gate_code ();
         ])
  in
  List.iter
    (fun top ->
      Alcotest.(check string)
        (Printf.sprintf "code for top %#x" top)
        (fresh ~top) (installed_bytes ~top))
    [ 0x8000; 0x9000; 0x8000 ]

let test_enter_exit_state () =
  let m, nk = setup () in
  let g = gate_of nk in
  let rsp0 = Cpu_state.get m.Machine.cpu Insn.RSP in
  (match Gate.enter m g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "enter: %a" Gate.pp_crossing_error e);
  Alcotest.(check bool) "WP clear inside" false (Cr.wp_enabled m.Machine.cr);
  Alcotest.(check bool) "interrupts off inside" false m.Machine.cpu.Cpu_state.intf;
  Alcotest.(check bool) "on the secure stack" true
    (Cpu_state.get m.Machine.cpu Insn.RSP <> rsp0);
  Alcotest.(check bool) "marker" true m.Machine.in_nested_kernel;
  (match Gate.exit_ m g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exit: %a" Gate.pp_crossing_error e);
  Alcotest.(check bool) "WP restored" true (Cr.wp_enabled m.Machine.cr);
  Alcotest.(check int) "caller stack restored" rsp0
    (Cpu_state.get m.Machine.cpu Insn.RSP);
  Alcotest.(check bool) "interrupts restored" true m.Machine.cpu.Cpu_state.intf

let test_registers_preserved () =
  let m, nk = setup () in
  let g = gate_of nk in
  Cpu_state.set m.Machine.cpu Insn.RAX 0x1234;
  Cpu_state.set m.Machine.cpu Insn.RCX 0x5678;
  (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
  Alcotest.(check int) "rax preserved across entry" 0x1234
    (Cpu_state.get m.Machine.cpu Insn.RAX);
  Alcotest.(check int) "rcx preserved across entry" 0x5678
    (Cpu_state.get m.Machine.cpu Insn.RCX);
  (match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit");
  Alcotest.(check int) "rax preserved across exit" 0x1234
    (Cpu_state.get m.Machine.cpu Insn.RAX)

let test_fast_path_matches_interpreted () =
  let m, nk = setup () in
  let g = gate_of nk in
  let crossing () =
    (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
    (match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit")
  in
  (* First two crossings interpret; memoized cost replayed afterwards. *)
  crossing ();
  let before2 = Clock.cycles m.Machine.clock in
  crossing ();
  let interpreted = Clock.cycles m.Machine.clock - before2 in
  let before3 = Clock.cycles m.Machine.clock in
  crossing ();
  let fast = Clock.cycles m.Machine.clock - before3 in
  Alcotest.(check int) "fast path replays the measured cost" interpreted fast

let test_strict_mode_interprets () =
  let m, nk = setup () in
  let g = gate_of nk in
  g.Gate.strict <- true;
  for _ = 1 to 4 do
    (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
    match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit"
  done;
  Alcotest.(check bool) "no fast frames accumulated" true (Gate.pending_fast_frames g = 0)

let test_strict_toggle_mid_crossing () =
  (* Flipping strict between a fast enter and its exit must not desync
     the crossing: the exit follows the mode of its matching enter. *)
  let m, nk = setup () in
  let g = gate_of nk in
  let crossing () =
    (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
    match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit"
  in
  crossing ();
  crossing ();
  (* Third crossing takes the fast path... *)
  let rsp0 = Cpu_state.get m.Machine.cpu Insn.RSP in
  (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
  (* ...and an adversary of our own making flips strict mid-flight. *)
  g.Gate.strict <- true;
  (match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit");
  Alcotest.(check int) "caller stack restored" rsp0
    (Cpu_state.get m.Machine.cpu Insn.RSP);
  Alcotest.(check bool) "WP restored" true (Cr.wp_enabled m.Machine.cr);
  Alcotest.(check bool) "no orphaned fast frames" true (Gate.pending_fast_frames g = 0)

let test_writes_to_protected_inside_gate () =
  let m, nk = setup () in
  let g = gate_of nk in
  let root = nk.State.root_pml4 in
  let pte_va = State.entry_va_of_pte ~ptp:root ~index:300 in
  Helpers.expect_fault "outside the gate" (Machine.kwrite_u64 m pte_va 0);
  (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
  (match Machine.kwrite_u64 m pte_va 0 with
  | Ok () -> ()
  | Error f -> Alcotest.failf "inside the gate: %a" Fault.pp f);
  match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit"

let test_exit_gate_wp_loop () =
  (* Jump straight at the exit gate's mov-to-CR0 with hostile RAX: the
     verify loop must win (paper section 3.7). *)
  let m, nk = setup () in
  let g = gate_of nk in
  let off =
    let rec go off = function
      | [] -> Alcotest.fail "no mov-to-cr0"
      | Insn.Lbl _ :: rest -> go off rest
      | Insn.Ins (Insn.Mov_to_cr (Insn.CR0, _)) :: _ -> off
      | Insn.Ins i :: rest -> go (off + Insn.encoded_length i) rest
    in
    go 0 (Gate.exit_gate_code ())
  in
  Cpu_state.set m.Machine.cpu Insn.RAX (m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp);
  m.Machine.cpu.Cpu_state.rip <- g.Gate.exit_va + off;
  (* Attacker-controlled stack with junk for the pop/popfq. *)
  let f = Phys_mem.num_frames m.Machine.mem - 1 in
  Cpu_state.set m.Machine.cpu Insn.RSP (Addr.kva_of_frame f + 256);
  (match Exec.run ~fuel:100 m with
  | Exec.Callout c when c = Gate.callout_exit_done -> ()
  | other -> Alcotest.failf "unexpected stop: %a" Exec.pp_stop other);
  Alcotest.(check bool) "WP forced back on" true (Cr.wp_enabled m.Machine.cr)

let test_trap_during_nk_restores_wp () =
  (* Invariant I11: a trap arriving while the nested kernel operates
     (WP clear) must re-enable WP in the trap gate before any outer
     handler code could run. *)
  let m, nk = setup () in
  let g = gate_of nk in
  g.Gate.strict <- true;
  (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
  Alcotest.(check bool) "WP off inside the NK" false (Cr.wp_enabled m.Machine.cr);
  (* An NMI-style event that ignores IF. *)
  (match Exec.deliver_trap m ~vector:2 ~fault:None with
  | Ok () -> ()
  | Error f -> Alcotest.failf "delivery failed: %a" Fault.pp f);
  (match Exec.run ~fuel:100 m with
  | Exec.Callout c when c = Gate.callout_trap -> ()
  | other -> Alcotest.failf "expected the trap gate, got %a" Exec.pp_stop other);
  Alcotest.(check bool) "WP restored before the outer handler (I11)" true
    (Cr.wp_enabled m.Machine.cr)

let test_strict_enter_pairs_with_interpreted_exit () =
  (* The reverse toggle of [test_strict_toggle_mid_crossing]: a strict
     (interpreted) enter leaves no fast frame, so even if strict is
     cleared before the exit — with a memoized exit cost sitting ready
     to replay — the exit must interpret, not pop a stale frame. *)
  let m, nk = setup () in
  let g = gate_of nk in
  let crossing () =
    (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
    match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit"
  in
  (* Warm until both costs are memoized and the fast path is live. *)
  crossing ();
  crossing ();
  crossing ();
  Alcotest.(check bool) "exit cost memoized" true (g.Gate.exit_cost <> None);
  g.Gate.strict <- true;
  let rsp0 = Cpu_state.get m.Machine.cpu Insn.RSP in
  (match Gate.enter m g with Ok () -> () | Error _ -> Alcotest.fail "enter");
  Alcotest.(check bool) "interpreted enter left no fast frame" true
    (Gate.pending_fast_frames g = 0);
  g.Gate.strict <- false;
  (match Gate.exit_ m g with Ok () -> () | Error _ -> Alcotest.fail "exit");
  Alcotest.(check int) "caller stack restored" rsp0
    (Cpu_state.get m.Machine.cpu Insn.RSP);
  Alcotest.(check bool) "WP restored" true (Cr.wp_enabled m.Machine.cr);
  Alcotest.(check bool) "no orphaned fast frames" true (Gate.pending_fast_frames g = 0)

let test_trap_overhead_fallback_estimate () =
  (* Clobber the trap-gate bytes so its interpretation cannot reach the
     callout: trap_overhead must fall back to the static estimate and
     still leave the machine state intact. *)
  let m, nk = setup () in
  let g = gate_of nk in
  let trap_pa = g.Gate.trap_va - Addr.kva_of_frame 0 in
  Phys_mem.write_bytes m.Machine.mem trap_pa (Bytes.make 8 '\255');
  let wp0 = Cr.wp_enabled m.Machine.cr in
  let cost = Gate.trap_overhead m g in
  Alcotest.(check int) "static estimate"
    (m.Machine.costs.Costs.cr_write + m.Machine.costs.Costs.cr_read + 10)
    cost;
  Alcotest.(check int) "memoized" cost (Gate.trap_overhead m g);
  Alcotest.(check bool) "WP state restored" wp0 (Cr.wp_enabled m.Machine.cr)

let test_trap_overhead_memoized () =
  let m, nk = setup () in
  let g = gate_of nk in
  let c1 = Gate.trap_overhead m g in
  let c2 = Gate.trap_overhead m g in
  Alcotest.(check int) "memoized" c1 c2;
  Alcotest.(check bool) "plausible magnitude" true (c1 > 100 && c1 < 1000);
  Alcotest.(check bool) "machine state intact" true (Cr.wp_enabled m.Machine.cr)

let test_gate_cost_calibration () =
  (* Table 3: a null NK call costs ~473 cycles = 0.139us at 3.4 GHz. *)
  let m, nk = setup () in
  ignore (Api.nk_null nk);
  ignore (Api.nk_null nk);
  let before = Clock.cycles m.Machine.clock in
  ignore (Api.nk_null nk);
  let cost = Clock.cycles m.Machine.clock - before in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% of 473 cycles (got %d)" cost)
    true
    (abs (cost - 473) <= 14)

let suite =
  [
    Alcotest.test_case "install reuses a matching assembly" `Quick
      test_install_reuses_matching_assembly;
    Alcotest.test_case "enter/exit state machine" `Quick test_enter_exit_state;
    Alcotest.test_case "registers preserved" `Quick test_registers_preserved;
    Alcotest.test_case "fast path replays measured cost" `Quick
      test_fast_path_matches_interpreted;
    Alcotest.test_case "strict mode" `Quick test_strict_mode_interprets;
    Alcotest.test_case "strict toggle mid-crossing" `Quick
      test_strict_toggle_mid_crossing;
    Alcotest.test_case "protected writes only inside gate" `Quick
      test_writes_to_protected_inside_gate;
    Alcotest.test_case "exit-gate WP verify loop" `Quick test_exit_gate_wp_loop;
    Alcotest.test_case "trap during NK restores WP (I11)" `Quick
      test_trap_during_nk_restores_wp;
    Alcotest.test_case "strict enter pairs with interpreted exit" `Quick
      test_strict_enter_pairs_with_interpreted_exit;
    Alcotest.test_case "trap overhead fallback estimate" `Quick
      test_trap_overhead_fallback_estimate;
    Alcotest.test_case "trap overhead memoized" `Quick test_trap_overhead_memoized;
    Alcotest.test_case "Table 3 calibration" `Quick test_gate_cost_calibration;
  ]
