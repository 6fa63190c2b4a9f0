open Nkhw

(* A machine with paging off: code and data live at identity-mapped
   physical addresses, which keeps interpreter tests small. *)
let machine_with insns =
  let m = Machine.create ~frames:64 () in
  Phys_mem.write_bytes m.Machine.mem 0x1000 (Insn.assemble_raw insns);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Cpu_state.set m.Machine.cpu Insn.RSP 0x8000;
  m

let run m = Exec.run ~fuel:1000 m

let check_stop = Alcotest.testable Exec.pp_stop ( = )

let test_alu () =
  let m =
    machine_with
      Insn.
        [
          Mov_ri (RAX, 10);
          Add_ri (RAX, 5);
          Mov_rr (RBX, RAX);
          Sub_ri (RBX, 3);
          Add_rr (RAX, RBX);
          Xor_rr (RCX, RCX);
          Hlt;
        ]
  in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "rax" 27 (Cpu_state.get m.Machine.cpu Insn.RAX);
  Alcotest.(check int) "rbx" 12 (Cpu_state.get m.Machine.cpu Insn.RBX);
  Alcotest.(check int) "rcx" 0 (Cpu_state.get m.Machine.cpu Insn.RCX)

let test_loop_and_flags () =
  let prog =
    Insn.
      [
        Ins (Mov_ri (RAX, 0));
        Lbl "loop";
        Ins (Add_ri (RAX, 1));
        Ins (Cmp_ri (RAX, 5));
        Ins (Jnz (Label "loop"));
        Ins Hlt;
      ]
  in
  let m = Machine.create ~frames:64 () in
  Phys_mem.write_bytes m.Machine.mem 0x1000 (Insn.assemble prog);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Cpu_state.set m.Machine.cpu Insn.RSP 0x8000;
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "counted to 5" 5 (Cpu_state.get m.Machine.cpu Insn.RAX)

let test_stack () =
  let m =
    machine_with
      Insn.
        [
          Mov_ri (RAX, 111);
          Push RAX;
          Mov_ri (RAX, 222);
          Push RAX;
          Pop RBX;
          Pop RCX;
          Hlt;
        ]
  in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "lifo first" 222 (Cpu_state.get m.Machine.cpu Insn.RBX);
  Alcotest.(check int) "lifo second" 111 (Cpu_state.get m.Machine.cpu Insn.RCX);
  Alcotest.(check int) "rsp restored" 0x8000 (Cpu_state.get m.Machine.cpu Insn.RSP)

let test_load_store () =
  let m =
    machine_with
      Insn.
        [
          Mov_ri (RBX, 0x4000);
          Mov_ri (RAX, 0xBEEF);
          Store (RBX, 16, RAX);
          Load (RCX, RBX, 16);
          Hlt;
        ]
  in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "memory round trip" 0xBEEF
    (Cpu_state.get m.Machine.cpu Insn.RCX);
  Alcotest.(check int) "in memory" 0xBEEF (Phys_mem.read_u64 m.Machine.mem 0x4010)

let test_call_ret () =
  let prog =
    Insn.
      [
        Ins (Call (Label "fn"));
        Ins Hlt;
        Lbl "fn";
        Ins (Mov_ri (RDX, 77));
        Ins Ret;
      ]
  in
  let m = Machine.create ~frames:64 () in
  Phys_mem.write_bytes m.Machine.mem 0x1000 (Insn.assemble prog);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Cpu_state.set m.Machine.cpu Insn.RSP 0x8000;
  Alcotest.check check_stop "halts after return" Exec.Halted (run m);
  Alcotest.(check int) "function ran" 77 (Cpu_state.get m.Machine.cpu Insn.RDX)

let test_callout () =
  let m = machine_with Insn.[ Nop; Callout 42; Hlt ] in
  Alcotest.check check_stop "callout surfaces" (Exec.Callout 42) (run m);
  (* Resumable: rip moved past the callout. *)
  Alcotest.check check_stop "resumes to halt" Exec.Halted (run m)

let test_flags_pushf_popf () =
  let m =
    machine_with
      Insn.
        [
          Cli;
          Test_ri (RAX, 1);
          (* zf=1, if=0 *) Pushfq;
          Sti;
          Mov_ri (RAX, 1);
          Test_ri (RAX, 1);
          (* zf=0, if=1 *) Popfq;
          Hlt;
        ]
  in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check bool) "zf restored" true m.Machine.cpu.Cpu_state.zf;
  Alcotest.(check bool) "if restored" false m.Machine.cpu.Cpu_state.intf

let test_cr_and_msr () =
  let m =
    machine_with
      Insn.
        [
          Mov_ri (RAX, 0x0005_0011);
          Mov_to_cr (CR0, RAX);
          Mov_from_cr (RBX, CR0);
          Mov_ri (RCX, Machine.msr_efer);
          Mov_ri (RAX, 0x900);
          Wrmsr;
          Rdmsr;
          Mov_rr (RDX, RAX);
          Hlt;
        ]
  in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "cr0 written" 0x0005_0011 m.Machine.cr.Cr.cr0;
  Alcotest.(check int) "cr0 read back" 0x0005_0011
    (Cpu_state.get m.Machine.cpu Insn.RBX);
  Alcotest.(check int) "efer via wrmsr/rdmsr" 0x900
    (Cpu_state.get m.Machine.cpu Insn.RDX)

let test_invalid_opcode_faults () =
  let m = Machine.create ~frames:64 () in
  Phys_mem.write_u8 m.Machine.mem 0x1000 0xFF;
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  match run m with
  | Exec.Stopped_fault (Fault.Invalid_opcode { va }) ->
      Alcotest.(check int) "fault va" 0x1000 va
  | other -> Alcotest.failf "expected #UD, got %a" Exec.pp_stop other

let test_trap_delivery () =
  (* Paging off; IDT at 0x2000, handler at 0x3000 is a Callout stub. *)
  let m = Machine.create ~frames:64 () in
  for v = 0 to 255 do
    Phys_mem.write_u64 m.Machine.mem (0x2000 + (v * 8)) 0x3000
  done;
  m.Machine.idtr <- Some 0x2000;
  Phys_mem.write_bytes m.Machine.mem 0x3000
    (Insn.assemble_raw [ Insn.Callout 3 ]);
  (* Invalid opcode at 0x1000 now vectors through the IDT. *)
  Phys_mem.write_u8 m.Machine.mem 0x1000 0xFF;
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Cpu_state.set m.Machine.cpu Insn.RSP 0x8000;
  (match run m with
  | Exec.Callout 3 -> ()
  | other -> Alcotest.failf "expected trap handler callout, got %a" Exec.pp_stop other);
  (match m.Machine.last_trap with
  | Some (6, Some (Fault.Invalid_opcode _)) -> ()
  | _ -> Alcotest.fail "last_trap not recorded");
  Alcotest.(check bool) "interrupts masked in handler" false
    m.Machine.cpu.Cpu_state.intf;
  (* The interrupted context was pushed: flags then rip. *)
  Alcotest.(check int) "saved rip" 0x1000
    (Phys_mem.read_u64 m.Machine.mem (0x8000 - 16))

let test_external_interrupt () =
  let m = Machine.create ~frames:64 () in
  for v = 0 to 255 do
    Phys_mem.write_u64 m.Machine.mem (0x2000 + (v * 8)) 0x3000
  done;
  m.Machine.idtr <- Some 0x2000;
  Phys_mem.write_bytes m.Machine.mem 0x3000
    (Insn.assemble_raw [ Insn.Callout 3 ]);
  Phys_mem.write_bytes m.Machine.mem 0x1000
    (Insn.assemble_raw Insn.[ Nop; Nop; Hlt ]);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Cpu_state.set m.Machine.cpu Insn.RSP 0x8000;
  Machine.raise_interrupt m 32;
  (match run m with
  | Exec.Callout 3 -> ()
  | other -> Alcotest.failf "expected interrupt delivery, got %a" Exec.pp_stop other);
  match m.Machine.last_trap with
  | Some (32, None) -> ()
  | _ -> Alcotest.fail "interrupt vector not recorded"

let test_interrupt_masked_by_cli () =
  let m = Machine.create ~frames:64 () in
  for v = 0 to 255 do
    Phys_mem.write_u64 m.Machine.mem (0x2000 + (v * 8)) 0x3000
  done;
  m.Machine.idtr <- Some 0x2000;
  Phys_mem.write_bytes m.Machine.mem 0x1000
    (Insn.assemble_raw Insn.[ Nop; Hlt ]);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  m.Machine.cpu.Cpu_state.intf <- false;
  Machine.raise_interrupt m 32;
  Alcotest.check check_stop "runs to halt with IF clear" Exec.Halted (run m);
  Alcotest.(check bool) "interrupt still pending" true
    (m.Machine.pending_interrupts = [ 32 ])

let test_cr3_write_flushes_tlb () =
  let m = machine_with Insn.[ Mov_ri (RAX, 0x5000); Mov_to_cr (CR3, RAX); Hlt ] in
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage:77
    { Tlb.frame = 1; writable = true; user = false; nx = false; global = false };
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "cr3 loaded" 0x5000 m.Machine.cr.Cr.cr3;
  Alcotest.(check bool) "tlb flushed" true
    (Tlb.lookup m.Machine.tlb ~asid:0 ~vpage:77 = None)

let test_fuel () =
  let prog = Insn.[ Lbl "spin"; Ins (Jmp (Label "spin")) ] in
  let m = Machine.create ~frames:64 () in
  Phys_mem.write_bytes m.Machine.mem 0x1000 (Insn.assemble prog);
  m.Machine.cpu.Cpu_state.rip <- 0x1000;
  Alcotest.check check_stop "spinner runs out of fuel" Exec.Fuel_exhausted
    (Exec.run ~fuel:50 m)

(* Paging on, with [pages] — (va, frame) pairs — mapped supervisor
   r-x and every other page unmapped.  Page tables take frames from 1
   up; code frames sit well above them. *)
let paged_machine pages =
  let m = Machine.create ~frames:64 () in
  let next = ref 1 in
  let alloc_ptp () =
    let f = !next in
    incr next;
    f
  in
  let root = alloc_ptp () in
  List.iter
    (fun (va, frame) ->
      Pt_builder.map_page m.Machine.mem ~root ~alloc_ptp va
        (Pte.make ~frame Pte.kernel_rx))
    pages;
  let cr = m.Machine.cr in
  cr.Cr.cr3 <- Addr.pa_of_frame root;
  cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp;
  cr.Cr.cr4 <- Cr.cr4_pae;
  cr.Cr.efer <- Cr.efer_lme lor Cr.efer_nx;
  m

let page1 = 0x10000
let page2 = 0x11000
let straddle_va = page2 - 4
let imm = 0x1122334455667788

(* A 9-byte [mov rax, imm] starting 4 bytes before the end of [page1],
   so its last 5 bytes come from [page2]'s frame, followed by [hlt].
   [page1] maps frame 40 and [page2] frame 50; frame 41, the one
   physically after frame 40, holds a different instruction, so a
   fetch that read past the boundary physically would load its
   immediate instead. *)
let straddling_program ~second_page_mapped =
  let pages = (page1, 40) :: (if second_page_mapped then [ (page2, 50) ] else []) in
  let m = paged_machine pages in
  let mem = m.Machine.mem in
  let code = Insn.assemble_raw Insn.[ Mov_ri (RAX, imm); Hlt ] in
  let split = page2 - straddle_va in
  let pa f off = Addr.pa_of_frame f + off in
  Phys_mem.write_bytes mem
    (pa 40 (Addr.page_size - split))
    (Bytes.sub code 0 split);
  Phys_mem.write_bytes mem (pa 50 0) (Bytes.sub code split (Bytes.length code - split));
  Phys_mem.write_bytes mem (pa 41 0) (Insn.assemble_raw Insn.[ Mov_ri (RAX, 0x99); Hlt ]);
  m.Machine.cpu.Cpu_state.rip <- straddle_va;
  m

let test_fetch_straddles_frames () =
  let m = straddling_program ~second_page_mapped:true in
  Alcotest.check check_stop "halts" Exec.Halted (run m);
  Alcotest.(check int) "immediate read through the second page's frame" imm
    (Cpu_state.get m.Machine.cpu Insn.RAX);
  Alcotest.(check int) "halted after the hlt on the second page" (page2 + 6)
    m.Machine.cpu.Cpu_state.rip

let test_fetch_last_byte_next_unmapped () =
  let m = paged_machine [ (page1, 40) ] in
  Phys_mem.write_bytes m.Machine.mem
    (Addr.pa_of_frame 40 + Addr.page_size - 1)
    (Insn.assemble_raw Insn.[ Hlt ]);
  m.Machine.cpu.Cpu_state.rip <- page2 - 1;
  Alcotest.check check_stop "one-byte hlt on the last byte runs" Exec.Halted (run m);
  Alcotest.(check int) "rip past it" page2 m.Machine.cpu.Cpu_state.rip

(* The window stops at the unmapped page, so the decoder sees a
   truncated instruction: #UD at its first byte, undeliverable with no
   IDT loaded. *)
let test_fetch_straddles_into_unmapped () =
  let m = straddling_program ~second_page_mapped:false in
  Alcotest.check check_stop "truncated fetch is #UD"
    (Exec.Stopped_fault (Fault.Invalid_opcode { va = straddle_va }))
    (run m)

let test_fetch_straddle_tlb_misses () =
  let m = straddling_program ~second_page_mapped:true in
  let tlb = m.Machine.tlb in
  let misses0 = Tlb.misses tlb in
  Alcotest.check check_stop "cold run halts" Exec.Halted (run m);
  Alcotest.(check int) "cold: one miss per page" 2 (Tlb.misses tlb - misses0);
  m.Machine.cpu.Cpu_state.rip <- straddle_va;
  let misses1 = Tlb.misses tlb in
  Alcotest.check check_stop "warm run halts" Exec.Halted (run m);
  Alcotest.(check int) "warm: no miss" 0 (Tlb.misses tlb - misses1)

let suite =
  [
    Alcotest.test_case "ALU" `Quick test_alu;
    Alcotest.test_case "loop and flags" `Quick test_loop_and_flags;
    Alcotest.test_case "stack push/pop" `Quick test_stack;
    Alcotest.test_case "load/store" `Quick test_load_store;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "callout resumable" `Quick test_callout;
    Alcotest.test_case "pushfq/popfq" `Quick test_flags_pushf_popf;
    Alcotest.test_case "control registers and MSRs" `Quick test_cr_and_msr;
    Alcotest.test_case "invalid opcode" `Quick test_invalid_opcode_faults;
    Alcotest.test_case "trap delivery via IDT" `Quick test_trap_delivery;
    Alcotest.test_case "external interrupt" `Quick test_external_interrupt;
    Alcotest.test_case "cli masks interrupts" `Quick test_interrupt_masked_by_cli;
    Alcotest.test_case "mov cr3 flushes TLB" `Quick test_cr3_write_flushes_tlb;
    Alcotest.test_case "fuel bound" `Quick test_fuel;
    Alcotest.test_case "fetch straddles non-adjacent frames" `Quick
      test_fetch_straddles_frames;
    Alcotest.test_case "fetch on a page's last byte, next unmapped" `Quick
      test_fetch_last_byte_next_unmapped;
    Alcotest.test_case "fetch straddles into an unmapped page" `Quick
      test_fetch_straddles_into_unmapped;
    Alcotest.test_case "straddling fetch TLB misses, cold and warm" `Quick
      test_fetch_straddle_tlb_misses;
  ]
