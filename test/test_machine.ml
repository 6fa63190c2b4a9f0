open Nkhw

(* Machine-level accessors: permission checks on every page touched,
   cost accounting, IDT helpers. *)

let booted () = Helpers.booted_nk ()

let test_word_straddling_pages_checks_both () =
  let m, nk = booted () in
  (* Pick a boundary between a writable outer frame and a protected
     PTP frame: the PTP pool starts right before the outer pool, so
     frame boundary (outer_first - 1 | outer_first) has RO then RW.
     Build the opposite: write a word straddling from a writable frame
     into a protected one. *)
  let f_rw = Nested_kernel.Api.outer_first_frame nk in
  (* Protect the following frame via nk_declare. *)
  let protected_va = Addr.kva_of_frame (f_rw + 1) in
  let _ =
    Result.get_ok
      (Nested_kernel.Api.nk_declare nk ~base:protected_va ~size:16
         Nested_kernel.Policy.no_write)
  in
  let boundary = protected_va - 4 in
  Helpers.expect_fault "straddling write checks the second page"
    (Machine.kwrite_u64 m boundary 0xFFFF);
  Helpers.check_ok "word fully inside the writable page"
    (Machine.kwrite_u64 m (boundary - 8) 0xFFFF)

(* VA 0x10000 -> frame 40 and 0x11000 -> frame 50, both writable; frame
   41, physically after 40, is mapped read-only only.  A word straddling
   the two writable pages must put its high bytes in frame 50. *)
let test_word_straddle_splits_at_page () =
  let m = Machine.create ~frames:64 () in
  let mem = m.Machine.mem in
  let next = ref 1 in
  let alloc_ptp () =
    let f = !next in
    incr next;
    f
  in
  let root = alloc_ptp () in
  let map va frame flags =
    Pt_builder.map_page mem ~root ~alloc_ptp va (Pte.make ~frame flags)
  in
  map 0x10000 40 Pte.kernel_rw;
  map 0x11000 50 Pte.kernel_rw;
  map 0x12000 41 Pte.kernel_ro;
  let cr = m.Machine.cr in
  cr.Cr.cr3 <- Addr.pa_of_frame root;
  cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp;
  cr.Cr.cr4 <- Cr.cr4_pae;
  cr.Cr.efer <- Cr.efer_lme lor Cr.efer_nx;
  let byte f i = Phys_mem.read_u8 mem ((f * 4096) + i) in
  Helpers.check_ok "straddling store"
    (Machine.kwrite_u64 m 0x10ffc 0x1122334455667788);
  Alcotest.(check (list int)) "frame 40 holds bytes 0..3" [ 0x88; 0x77; 0x66; 0x55 ]
    (List.init 4 (fun i -> byte 40 (0xffc + i)));
  Alcotest.(check (list int)) "frame 50 holds bytes 4..7" [ 0x44; 0x33; 0x22; 0x11 ]
    (List.init 4 (byte 50));
  Alcotest.(check (list int)) "read-only frame 41 untouched" [ 0; 0; 0; 0 ]
    (List.init 4 (byte 41));
  Alcotest.(check (result int Helpers.fault)) "straddling read"
    (Ok 0x1122334455667788) (Machine.kread_u64 m 0x10ffc);
  Alcotest.(check int) "packed straddling read" 0x1122334455667788
    (Machine.kread_word m 0x10ffc)

(* Booting pays for the memory a run stores into, not for its size:
   [tenants] boots 32768 frames (128 MiB of simulated DRAM). *)
let test_create_pays_for_touched_memory () =
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let w0 = major () in
  let m = Machine.create ~frames:32768 () in
  let words = major () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "create adds %.0f major words, under 1M" words)
    true (words < 1e6);
  let snap = Nktrace.snapshot m.Machine.trace in
  Alcotest.(check int) "a never-enabled tracer holds no events" 0
    (List.length snap.Nktrace.events + snap.Nktrace.dropped)

let test_bulk_write_partial_fault () =
  let m, nk = booted () in
  let f_rw = Nested_kernel.Api.outer_first_frame nk in
  let protected_va = Addr.kva_of_frame (f_rw + 1) in
  let _ =
    Result.get_ok
      (Nested_kernel.Api.nk_declare nk ~base:protected_va ~size:16
         Nested_kernel.Policy.no_write)
  in
  (* A bulk write starting in writable memory and running into the
     protected page must fault at the page boundary. *)
  let start = protected_va - 64 in
  Helpers.expect_fault "bulk write hits the protected page"
    (Machine.kwrite_bytes m start (Bytes.make 128 'x'))

let test_read_vs_write_rings () =
  let m, _ = booted () in
  let kva = Addr.kva_of_frame 1 in
  (* NK code page: supervisor read fine, user read faults. *)
  Helpers.check_ok "supervisor read" (Machine.read_u8 m ~ring:Mmu.Supervisor kva);
  Helpers.expect_fault "user read of kernel memory"
    (Machine.read_u8 m ~ring:Mmu.User kva)

let test_costs_charged_per_access () =
  let m, nk = booted () in
  let va = Addr.kva_of_frame (Nested_kernel.Api.outer_first_frame nk) in
  ignore (Machine.kread_u64 m va);
  let before = Clock.cycles m.Machine.clock in
  ignore (Machine.kread_u64 m va);
  let hit_cost = Clock.cycles m.Machine.clock - before in
  Alcotest.(check int) "TLB-hot read costs mem_insn"
    m.Machine.costs.Costs.mem_insn hit_cost

let test_idt_helpers () =
  let m, nk = booted () in
  (match Machine.idt_entry_va m 14 with
  | Some va -> Alcotest.(check int) "slot address" (nk.Nested_kernel.State.idt_va + 112) va
  | None -> Alcotest.fail "idt loaded");
  match Machine.read_idt_entry m 14 with
  | Ok h ->
      Alcotest.(check int) "handler is the trap gate"
        nk.Nested_kernel.State.gate.Nested_kernel.Gate.trap_va h
  | Error _ -> Alcotest.fail "entry readable"

let test_interrupt_queue_fifo () =
  let m = Machine.create ~frames:16 () in
  Machine.raise_interrupt m 3;
  Machine.raise_interrupt m 9;
  Alcotest.(check (list int)) "fifo order" [ 3; 9 ] m.Machine.pending_interrupts

let prop_rw_roundtrip_through_mmu =
  Helpers.qtest ~count:60 "machine word writes read back through the MMU"
    QCheck2.Gen.(pair (int_range 0 4000) (int_range 0 0x3FFFFFFF))
    (fun (off, v) ->
      let m, nk = booted () in
      let va = Addr.kva_of_frame (Nested_kernel.Api.outer_first_frame nk) + off in
      match Machine.kwrite_u64 m va v with
      | Error _ -> false
      | Ok () -> Machine.kread_u64 m va = Ok v)

let suite =
  [
    Alcotest.test_case "word straddling pages" `Quick
      test_word_straddling_pages_checks_both;
    Alcotest.test_case "straddling word splits at the page boundary" `Quick
      test_word_straddle_splits_at_page;
    Alcotest.test_case "create pays for touched memory only" `Quick
      test_create_pays_for_touched_memory;
    Alcotest.test_case "bulk write partial fault" `Quick
      test_bulk_write_partial_fault;
    Alcotest.test_case "ring checks on reads" `Quick test_read_vs_write_rings;
    Alcotest.test_case "per-access cost accounting" `Quick
      test_costs_charged_per_access;
    Alcotest.test_case "IDT helpers" `Quick test_idt_helpers;
    Alcotest.test_case "interrupt queue order" `Quick test_interrupt_queue_fifo;
    prop_rw_roundtrip_through_mmu;
  ]
