open Nkhw

type t = {
  entry_va : Addr.va;
  exit_va : Addr.va;
  trap_va : Addr.va;
  secure_stack_top : Addr.va;
  code_len : int;
  mutable strict : bool;
  mutable entry_cost : int option;
  mutable exit_cost : int option;
  mutable trap_cost : int option;
  mutable crossings : int;
  (* Per-CPU stacks of fast-path caller frames (saved RSP and RFLAGS),
     parallel int arrays indexed by cpu id: a steady-state crossing
     pushes and pops plain ints, no tuple, no list cell, no hash
     lookup.  [fast_depth.(cpu)] is the live depth of that CPU's
     stack; the arrays grow (rarely) and never shrink. *)
  mutable fast_rsp : int array array;
  mutable fast_flags : int array array;
  mutable fast_depth : int array;
  mutable wp_isolation_failures : int;
  mutable inject : Nkinject.t option;
}

let callout_entry_done = 1
let callout_exit_done = 2
let callout_trap = 3

let wp = Cr.cr0_wp

(* Figure 2 of the paper.  RCX carries the caller's post-pushfq stack
   pointer across the stack switch so the spilled registers can be
   recovered from the old stack. *)
let entry_gate_code ~secure_stack_top =
  Insn.
    [
      Ins Pushfq;
      Ins Cli;
      Ins (Store (RSP, -8, RAX));
      Ins (Store (RSP, -16, RCX));
      Ins (Mov_rr (RCX, RSP));
      Ins (Mov_from_cr (RAX, CR0));
      Ins (And_ri (RAX, lnot wp));
      Ins (Mov_to_cr (CR0, RAX));
      Ins Cli;
      Ins (Mov_ri (RSP, secure_stack_top));
      Ins (Push RCX);
      Ins (Load (RAX, RCX, -8));
      Ins (Load (RCX, RCX, -16));
      Ins (Callout callout_entry_done);
    ]

(* Figure 3.  The or/mov/test/jz loop guarantees that control cannot
   leave this code with WP clear even if an attacker jumps straight at
   the mov-to-CR0 with a hostile RAX. *)
let exit_gate_code () =
  Insn.
    [
      Ins (Load (RSP, RSP, 0));
      Ins (Push RAX);
      Ins (Mov_from_cr (RAX, CR0));
      Lbl "wp_loop";
      Ins (Or_ri (RAX, wp));
      Ins (Mov_to_cr (CR0, RAX));
      Ins (Test_ri (RAX, wp));
      Ins (Jz (Label "wp_loop"));
      Ins (Pop RAX);
      Ins Popfq;
      Ins (Callout callout_exit_done);
    ]

(* Invariant I11: all interrupts and traps land here first; WP is
   forced back on (same loop as the exit gate) before any outer-kernel
   handler code can run. *)
let trap_gate_code () =
  Insn.
    [
      Ins (Push RAX);
      Ins (Mov_from_cr (RAX, CR0));
      Lbl "wp_loop";
      Ins (Or_ri (RAX, wp));
      Ins (Mov_to_cr (CR0, RAX));
      Ins (Test_ri (RAX, wp));
      Ins (Jz (Label "wp_loop"));
      Ins (Pop RAX);
      Ins (Callout callout_trap);
    ]

(* The three routines depend only on [secure_stack_top], and every
   boot of one layout installs the same bytes (the model checker boots
   once per transition), so the last assembly is kept and reused when
   the top matches.  Installing copies the bytes into memory; the kept
   ones are never written. *)
let assembled = ref None

let assemble_gates ~secure_stack_top =
  match !assembled with
  | Some (top, code) when top = secure_stack_top -> code
  | _ ->
      let code =
        ( Insn.assemble (entry_gate_code ~secure_stack_top),
          Insn.assemble (exit_gate_code ()),
          Insn.assemble (trap_gate_code ()) )
      in
      assembled := Some (secure_stack_top, code);
      code

let install mem ~code_base_pa ~code_base_va ~secure_stack_top =
  let entry, exit_, trap = assemble_gates ~secure_stack_top in
  let entry_off = 0 in
  let exit_off = Bytes.length entry in
  let trap_off = exit_off + Bytes.length exit_ in
  Phys_mem.write_bytes mem (code_base_pa + entry_off) entry;
  Phys_mem.write_bytes mem (code_base_pa + exit_off) exit_;
  Phys_mem.write_bytes mem (code_base_pa + trap_off) trap;
  {
    entry_va = code_base_va + entry_off;
    exit_va = code_base_va + exit_off;
    trap_va = code_base_va + trap_off;
    secure_stack_top;
    code_len = trap_off + Bytes.length trap;
    strict = false;
    entry_cost = None;
    exit_cost = None;
    trap_cost = None;
    crossings = 0;
    fast_rsp = [||];
    fast_flags = [||];
    fast_depth = [||];
    wp_isolation_failures = 0;
    inject = None;
  }

type crossing_error = Unexpected_stop of Exec.stop | Denied

let pp_crossing_error ppf = function
  | Unexpected_stop s ->
      Format.fprintf ppf "gate crossing stopped unexpectedly: %a" Exec.pp_stop s
  | Denied -> Format.pp_print_string ppf "gate entry denied (injected fault)"

let interpret (m : Machine.t) va ~expect =
  m.Machine.cpu.Cpu_state.rip <- va;
  match Exec.run ~fuel:200 m with
  | Exec.Callout c when c = expect -> Ok ()
  | other -> Error (Unexpected_stop other)

(* Warm-up crossings are interpreted; once an interpretation completes
   with zero TLB misses its (purely architectural) cost is memoized and
   replayed by the fast path.  Gating on a fully warm crossing keeps the
   memoized cost independent of which stack or code pages happened to be
   cold during boot. *)
let want_interpretation t = t.strict || t.crossings < 2

(* Fast-path crossings pair per CPU: a frame pushed while CPU 2 drove
   the machine can only be popped by CPU 2's exit, so interleaved
   crossings on different CPUs each restore their own caller state. *)
let ensure_cpu t cpu =
  let n = Array.length t.fast_depth in
  if cpu >= n then begin
    let n' = max 4 (cpu + 1) in
    let grow rows =
      let a = Array.make n' [||] in
      Array.blit rows 0 a 0 n;
      a
    in
    t.fast_rsp <- grow t.fast_rsp;
    t.fast_flags <- grow t.fast_flags;
    let d = Array.make n' 0 in
    Array.blit t.fast_depth 0 d 0 n;
    t.fast_depth <- d
  end

let push_fast_frame (m : Machine.t) t ~rsp ~flags =
  let cpu = m.Machine.cur_cpu in
  ensure_cpu t cpu;
  let d = t.fast_depth.(cpu) in
  if d >= Array.length t.fast_rsp.(cpu) then begin
    let n' = max 4 (2 * d) in
    let grow a =
      let b = Array.make n' 0 in
      Array.blit a 0 b 0 d;
      b
    in
    t.fast_rsp.(cpu) <- grow t.fast_rsp.(cpu);
    t.fast_flags.(cpu) <- grow t.fast_flags.(cpu)
  end;
  t.fast_rsp.(cpu).(d) <- rsp;
  t.fast_flags.(cpu).(d) <- flags;
  t.fast_depth.(cpu) <- d + 1

let fast_depth (m : Machine.t) t =
  let cpu = m.Machine.cur_cpu in
  if cpu < Array.length t.fast_depth then t.fast_depth.(cpu) else 0

let pending_fast_frames t = Array.fold_left ( + ) 0 t.fast_depth

(* CR0.WP is per-CPU state: this CPU crossing its gate must never be
   observable as a relaxation on any peer.  Audited at every enter and
   exit; a nonzero count means the isolation argument of paper §3.2 is
   broken in the model. *)
let audit_peer_wp (m : Machine.t) t =
  Array.iter
    (fun cr ->
      if cr.Cr.cr0 land wp = 0 then
        t.wp_isolation_failures <- t.wp_isolation_failures + 1)
    m.Machine.peer_crs

let span_enter = Nktrace.span_id Nktrace.Gate_enter
let span_exit = Nktrace.span_id Nktrace.Gate_exit
let span_crossing = Nktrace.span_id Nktrace.Gate_crossing

(* The denial fires before any crossing state is touched: no span is
   opened, no crossing counted, WP and the stack are exactly as the
   caller left them — the refused call simply never happened, which is
   what lets [State.with_gate] surface it as an ordinary error. *)
let enter (m : Machine.t) t =
  if Nkinject.fire_opt t.inject Nkinject.Gate_denied then Error Denied
  else begin
  t.crossings <- t.crossings + 1;
  Nktrace.span_begin m.Machine.trace span_enter;
  let cpu = m.Machine.cpu in
  let result =
    if want_interpretation t || t.entry_cost = None then begin
      let before = Clock.cycles m.clock in
      let misses = Tlb.misses m.Machine.tlb in
      match interpret m t.entry_va ~expect:callout_entry_done with
      | Ok () ->
          if t.crossings >= 2 && Tlb.misses m.Machine.tlb = misses then
            t.entry_cost <- Some (Clock.cycles m.clock - before);
          Ok `Interpreted
      | Error e -> Error e
    end
    else begin
      let cost = Option.get t.entry_cost in
      Machine.charge m cost;
      push_fast_frame m t
        ~rsp:(Cpu_state.get cpu Insn.RSP)
        ~flags:(Cpu_state.flags_word cpu);
      m.cr.Cr.cr0 <- m.cr.Cr.cr0 land lnot wp;
      cpu.Cpu_state.intf <- false;
      Cpu_state.set cpu Insn.RSP (t.secure_stack_top - 8);
      Ok `Fast
    end
  in
  Nktrace.span_end m.Machine.trace span_enter;
  match result with
  | Ok _ ->
      m.Machine.in_nested_kernel <- true;
      audit_peer_wp m t;
      Machine.count_ev m Nktrace.Nk_enter;
      (* The crossing span stays open across the nested-kernel body and
         is closed by the matching exit. *)
      Nktrace.span_begin m.Machine.trace span_crossing;
      Ok ()
  | Error e -> Error e
  end

let exit_ (m : Machine.t) t =
  Nktrace.span_begin m.Machine.trace span_exit;
  let cpu = m.Machine.cpu in
  (* An exit must mirror its matching enter {e on this CPU}: a
     fast-path enter left no state in simulated memory, so its exit
     must be fast too — even if [strict] was flipped in between. *)
  let interpreted = fast_depth m t = 0 in
  let result =
    if interpreted || t.exit_cost = None then begin
      let before = Clock.cycles m.clock in
      let misses = Tlb.misses m.Machine.tlb in
      match interpret m t.exit_va ~expect:callout_exit_done with
      | Ok () ->
          if t.crossings >= 2 && Tlb.misses m.Machine.tlb = misses then
            t.exit_cost <- Some (Clock.cycles m.clock - before);
          Ok ()
      | Error e -> Error e
    end
    else begin
      let id = m.Machine.cur_cpu in
      let d = t.fast_depth.(id) - 1 in
      t.fast_depth.(id) <- d;
      Machine.charge m (Option.get t.exit_cost);
      m.cr.Cr.cr0 <- m.cr.Cr.cr0 lor wp;
      Cpu_state.set cpu Insn.RSP t.fast_rsp.(id).(d);
      Cpu_state.set_flags_word cpu t.fast_flags.(id).(d);
      Ok ()
    end
  in
  Nktrace.span_end m.Machine.trace span_exit;
  match result with
  | Ok () ->
      m.Machine.in_nested_kernel <- false;
      audit_peer_wp m t;
      Nktrace.span_end m.Machine.trace span_crossing;
      Ok ()
  | Error e -> Error e

let trap_overhead (m : Machine.t) t =
  match t.trap_cost with
  | Some c -> c
  | None ->
      (* Measure by interpreting the trap gate once on a scratch run:
         preserve CPU state, point RSP at the secure stack (writable
         with WP on?  the trap gate only pushes/pops one register and
         the secure stack is NK-protected, so run it with WP briefly
         cleared exactly as a real delivery during an NK operation
         would). *)
      let cpu = m.Machine.cpu in
      let saved = Cpu_state.copy cpu in
      let saved_cr0 = m.cr.Cr.cr0 in
      m.cr.Cr.cr0 <- m.cr.Cr.cr0 land lnot wp;
      Cpu_state.set cpu Insn.RSP t.secure_stack_top;
      let before = Clock.cycles m.clock in
      let cost =
        match interpret m t.trap_va ~expect:callout_trap with
        | Ok () -> Clock.cycles m.clock - before
        | Error _ ->
            (* Fall back to a static estimate if the machine is not in
               a runnable state; should not happen after boot. *)
            m.costs.Costs.cr_write + m.costs.Costs.cr_read + 10
      in
      (* Undo the measurement's side effects. *)
      m.cr.Cr.cr0 <- saved_cr0;
      cpu.Cpu_state.rip <- saved.Cpu_state.rip;
      cpu.Cpu_state.zf <- saved.Cpu_state.zf;
      cpu.Cpu_state.intf <- saved.Cpu_state.intf;
      cpu.Cpu_state.ring <- saved.Cpu_state.ring;
      Array.blit saved.Cpu_state.regs 0 cpu.Cpu_state.regs 0
        (Array.length saved.Cpu_state.regs);
      Clock.charge m.clock (before - Clock.cycles m.clock + cost);
      t.trap_cost <- Some cost;
      Nktrace.observe m.Machine.trace
        (Nktrace.span_name Nktrace.Gate_trap)
        cost;
      cost
