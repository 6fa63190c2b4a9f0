type stop =
  | Halted
  | Callout of int
  | Stopped_fault of Fault.t
  | Fuel_exhausted

let pp_stop ppf = function
  | Halted -> Format.pp_print_string ppf "halted"
  | Callout c -> Format.fprintf ppf "callout(%d)" c
  | Stopped_fault f -> Format.fprintf ppf "stopped on %a" Fault.pp f
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"

let ( let* ) = Result.bind

let deliver_trap (m : Machine.t) ~vector ~fault =
  let cpu = m.Machine.cpu in
  let* handler = Machine.read_idt_entry m vector in
  if handler = 0 then
    Error (Fault.General_protection (Printf.sprintf "IDT vector %d empty" vector))
  else begin
    Machine.charge m m.costs.Costs.trap_roundtrip;
    Machine.count_ev m Nktrace.Trap;
    (* Hardware pushes RFLAGS then the interrupted RIP on the stack of
       the privilege level the handler runs at; we deliver on the
       current (supervisor) stack. *)
    let rsp = Cpu_state.get cpu Insn.RSP in
    let* () = Machine.kwrite_u64 m (rsp - 8) (Cpu_state.flags_word cpu) in
    let* () = Machine.kwrite_u64 m (rsp - 16) cpu.Cpu_state.rip in
    Cpu_state.set cpu Insn.RSP (rsp - 16);
    cpu.Cpu_state.ring <- Mmu.Supervisor;
    cpu.Cpu_state.intf <- false;
    cpu.Cpu_state.rip <- handler;
    m.Machine.last_trap <- Some (vector, fault);
    Ok ()
  end

(* Fetch up to [max] instruction bytes starting at the CPU's RIP.  The
   first byte requires execute permission; bytes on a subsequent page
   require execute permission on that page too (checked lazily as we
   cross).  Returns the gathered bytes, or the fault that stopped the
   first byte. *)
let fetch_window (m : Machine.t) rip max =
  let cpu = m.Machine.cpu in
  let ring = cpu.Cpu_state.ring in
  let fault = m.Machine.mmu_fault in
  let r = Mmu.access_fast m.mem m.cr m.tlb ~ring ~kind:Fault.Exec rip ~fault in
  if r < 0 then Error !fault
  else begin
    Machine.charge m
      (if r land 1 = 1 then m.costs.Costs.simple_insn
       else m.costs.Costs.simple_insn + m.costs.Costs.tlb_miss_walk);
    let buf = Buffer.create max in
    Buffer.add_char buf (Char.chr (Phys_mem.read_u8 m.mem (r lsr 1)));
    let i = ref 1 and stop = ref false in
    while (not !stop) && !i < max do
      let va = rip + !i in
      let r = Mmu.access_fast m.mem m.cr m.tlb ~ring ~kind:Fault.Exec va ~fault in
      if r < 0 then stop := true
      else Buffer.add_char buf (Char.chr (Phys_mem.read_u8 m.mem (r lsr 1)));
      incr i
    done;
    Ok (Buffer.to_bytes buf)
  end

let exec_one (m : Machine.t) : (stop option, Fault.t) result =
  let cpu = m.Machine.cpu in
  let costs = m.Machine.costs in
  let rip = cpu.Cpu_state.rip in
  let* window = fetch_window m rip 10 in
  match Insn.decode window 0 with
  | None -> Error (Fault.Invalid_opcode { va = rip })
  | Some (insn, len) -> (
      let next = rip + len in
      let ring = cpu.Cpu_state.ring in
      let simple () = Machine.charge m costs.Costs.simple_insn in
      let goto va =
        cpu.Cpu_state.rip <- va;
        Ok None
      in
      let fallthrough () = goto next in
      let rel = function
        | Insn.Rel r -> r
        | Insn.Label _ -> 0 (* unreachable: decode yields Rel *)
      in
      let push v =
        let rsp = Cpu_state.get cpu Insn.RSP - 8 in
        let* () = Machine.write_u64 m ~ring rsp v in
        Cpu_state.set cpu Insn.RSP rsp;
        Ok ()
      in
      let pop () =
        let rsp = Cpu_state.get cpu Insn.RSP in
        let* v = Machine.read_u64 m ~ring rsp in
        Cpu_state.set cpu Insn.RSP (rsp + 8);
        Ok v
      in
      match insn with
      | Insn.Nop ->
          simple ();
          fallthrough ()
      | Insn.Hlt ->
          simple ();
          cpu.Cpu_state.rip <- next;
          Ok (Some Halted)
      | Insn.Callout code ->
          simple ();
          cpu.Cpu_state.rip <- next;
          Ok (Some (Callout code))
      | Insn.Pushfq ->
          Machine.charge m costs.Costs.pushf_popf;
          let* () = push (Cpu_state.flags_word cpu) in
          fallthrough ()
      | Insn.Popfq ->
          Machine.charge m costs.Costs.pushf_popf;
          let* w = pop () in
          Cpu_state.set_flags_word cpu w;
          fallthrough ()
      | Insn.Cli ->
          Machine.charge m costs.Costs.cli_sti;
          cpu.Cpu_state.intf <- false;
          fallthrough ()
      | Insn.Sti ->
          Machine.charge m costs.Costs.cli_sti;
          cpu.Cpu_state.intf <- true;
          fallthrough ()
      | Insn.Push r ->
          simple ();
          let* () = push (Cpu_state.get cpu r) in
          fallthrough ()
      | Insn.Pop r ->
          simple ();
          let* v = pop () in
          Cpu_state.set cpu r v;
          fallthrough ()
      | Insn.Mov_ri (r, imm) ->
          simple ();
          Cpu_state.set cpu r imm;
          fallthrough ()
      | Insn.Mov_rr (dst, src) ->
          simple ();
          Cpu_state.set cpu dst (Cpu_state.get cpu src);
          fallthrough ()
      | Insn.Load (dst, base, disp) ->
          let* v = Machine.read_u64 m ~ring (Cpu_state.get cpu base + disp) in
          Cpu_state.set cpu dst v;
          fallthrough ()
      | Insn.Store (base, disp, src) ->
          let* () =
            Machine.write_u64 m ~ring
              (Cpu_state.get cpu base + disp)
              (Cpu_state.get cpu src)
          in
          fallthrough ()
      | Insn.And_ri (r, imm) ->
          simple ();
          Cpu_state.set cpu r (Cpu_state.get cpu r land imm);
          fallthrough ()
      | Insn.Or_ri (r, imm) ->
          simple ();
          Cpu_state.set cpu r (Cpu_state.get cpu r lor imm);
          fallthrough ()
      | Insn.Add_ri (r, imm) ->
          simple ();
          Cpu_state.set cpu r (Cpu_state.get cpu r + imm);
          fallthrough ()
      | Insn.Sub_ri (r, imm) ->
          simple ();
          Cpu_state.set cpu r (Cpu_state.get cpu r - imm);
          fallthrough ()
      | Insn.Add_rr (dst, src) ->
          simple ();
          Cpu_state.set cpu dst (Cpu_state.get cpu dst + Cpu_state.get cpu src);
          fallthrough ()
      | Insn.Xor_rr (dst, src) ->
          simple ();
          Cpu_state.set cpu dst (Cpu_state.get cpu dst lxor Cpu_state.get cpu src);
          fallthrough ()
      | Insn.Test_ri (r, imm) ->
          simple ();
          cpu.Cpu_state.zf <- Cpu_state.get cpu r land imm = 0;
          fallthrough ()
      | Insn.Cmp_ri (r, imm) ->
          simple ();
          cpu.Cpu_state.zf <- Cpu_state.get cpu r = imm;
          fallthrough ()
      | Insn.Test_rr (a, b) ->
          simple ();
          cpu.Cpu_state.zf <- Cpu_state.get cpu a land Cpu_state.get cpu b = 0;
          fallthrough ()
      | Insn.Cmp_rr (a, b) ->
          simple ();
          cpu.Cpu_state.zf <- Cpu_state.get cpu a = Cpu_state.get cpu b;
          fallthrough ()
      | Insn.Jz t ->
          simple ();
          if cpu.Cpu_state.zf then goto (next + rel t) else fallthrough ()
      | Insn.Jnz t ->
          simple ();
          if not cpu.Cpu_state.zf then goto (next + rel t) else fallthrough ()
      | Insn.Jmp t ->
          simple ();
          goto (next + rel t)
      | Insn.Call t ->
          Machine.charge m costs.Costs.call_ret;
          let* () = push next in
          goto (next + rel t)
      | Insn.Ret ->
          Machine.charge m costs.Costs.call_ret;
          let* ra = pop () in
          goto ra
      | Insn.Mov_from_cr (r, c) ->
          Machine.charge m costs.Costs.cr_read;
          let v =
            match c with
            | Insn.CR0 -> m.cr.Cr.cr0
            | Insn.CR3 -> m.cr.Cr.cr3
            | Insn.CR4 -> m.cr.Cr.cr4
          in
          Cpu_state.set cpu r v;
          fallthrough ()
      | Insn.Mov_to_cr (c, r) ->
          Machine.charge m costs.Costs.cr_write;
          Machine.count_ev m Nktrace.Cr_write;
          let v = Cpu_state.get cpu r in
          (match c with
          | Insn.CR0 -> m.cr.Cr.cr0 <- v
          | Insn.CR3 ->
              m.cr.Cr.cr3 <- v;
              Machine.charge m costs.Costs.tlb_flush_full;
              Tlb.flush_all m.tlb
          | Insn.CR4 -> m.cr.Cr.cr4 <- v);
          fallthrough ()
      | Insn.Wrmsr ->
          Machine.charge m costs.Costs.wrmsr;
          Machine.count_ev m Nktrace.Wrmsr;
          let msr = Cpu_state.get cpu Insn.RCX in
          let v = Cpu_state.get cpu Insn.RAX in
          if msr = Machine.msr_efer then m.cr.Cr.efer <- v
          else Hashtbl.replace m.msrs msr v;
          fallthrough ()
      | Insn.Rdmsr ->
          Machine.charge m costs.Costs.cr_read;
          let msr = Cpu_state.get cpu Insn.RCX in
          let v =
            if msr = Machine.msr_efer then m.cr.Cr.efer
            else Option.value ~default:0 (Hashtbl.find_opt m.msrs msr)
          in
          Cpu_state.set cpu Insn.RAX v;
          fallthrough ()
      | Insn.Invlpg r ->
          Machine.charge m costs.Costs.invlpg;
          Tlb.flush_page m.tlb ~vpage:(Addr.vpage (Cpu_state.get cpu r));
          fallthrough ())

let run ?(fuel = 1_000_000) (m : Machine.t) =
  let cpu = m.Machine.cpu in
  let rec loop fuel =
    if fuel = 0 then Fuel_exhausted
    else begin
      (* External interrupts are sampled at instruction boundaries. *)
      (match (cpu.Cpu_state.intf, m.Machine.pending_interrupts) with
      | true, vector :: rest ->
          m.Machine.pending_interrupts <- rest;
          ignore (deliver_trap m ~vector ~fault:None)
      | _, _ -> ());
      match exec_one m with
      | Ok None -> loop (fuel - 1)
      | Ok (Some stop) -> stop
      | Error fault -> (
          match deliver_trap m ~vector:(Fault.vector fault) ~fault:(Some fault) with
          | Ok () -> loop (fuel - 1)
          | Error _ -> Stopped_fault fault)
    end
  in
  loop fuel
