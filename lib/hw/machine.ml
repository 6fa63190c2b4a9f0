type smm_owner = Smm_nested_kernel | Smm_unprotected

(* Shootdown target scope.  [Broadcast] is the legacy behaviour: every
   peer CPU is flushed and charged an IPI.  [Asids asids] targets only
   the CPUs the residency table says have run one of those ASIDs since
   their last flush of it — plus any parked TLB whose occupancy probe
   still finds a live entry in the flushed range, so filtering can
   never skip a CPU that actually caches the translation (the
   parked-peer guarantee is preserved unconditionally, not just when
   the residency bookkeeping is right).  [Cpuset mask] targets exactly
   the CPUs whose bit is set — for flushes whose audience was pinned
   down when the invalidation was decided (a deferred unmap can only
   be cached by CPUs that were resident when the PTE was cleared;
   later arrivals walked the cleared entry) — again with the occupancy
   backstop. *)
type shootdown_scope = Broadcast | Asids of int list | Cpuset of int

type t = {
  mem : Phys_mem.t;
  mutable cr : Cr.t;
  mutable tlb : Tlb.t;
  clock : Clock.t;
  costs : Costs.t;
  iommu : Iommu.t;
  mutable cpu : Cpu_state.t;
  mutable cur_cpu : int;
  mutable peer_tlbs : Tlb.t array;
  mutable peer_crs : Cr.t array;
  mutable peer_ids : int array;
  mutable asid_residency : int array;
  mutable max_res_asid : int;
  mutable global_residency : int;
  mutable res_memo_asid : int;
  mutable res_memo_cpu : int;
  mutable shoot_targets : int array;
  mutable shoot_ntargets : int;
  mutable word_hi : Addr.pa;
  mmu_fault : Fault.t ref;
  msrs : (int, int) Hashtbl.t;
  mutable idtr : Addr.va option;
  mutable pending_interrupts : int list;
  mutable smm_owner : smm_owner;
  mutable smi_handler : (t -> unit) option;
  mutable in_nested_kernel : bool;
  mutable last_trap : (int * Fault.t option) option;
  mutable coherence_hook : (op:string -> va:Addr.va -> unit) option;
  mutable shootdown_notify : (unit -> unit) option;
  trace : Nktrace.t;
}

let msr_efer = 0xC0000080

(* Initial residency-table size: a run notes few ASIDs (the model
   checker's universe two), so the table starts small and
   [note_residency] doubles it to cover a larger one, up to the 4 096
   PCIDs CR3 can name. *)
let residency_init_slots = 64

let create ?(frames = 8192) ?(costs = Costs.default) () =
  let clock = Clock.create () in
  let trace = Nktrace.create () in
  Nktrace.set_now trace (fun () -> Clock.cycles clock);
  {
    mem = Phys_mem.create ~frames;
    cr = Cr.create ();
    tlb = Tlb.create ();
    clock;
    costs;
    iommu = Iommu.create ();
    cpu = Cpu_state.create ();
    cur_cpu = 0;
    msrs = Hashtbl.create 8;
    peer_tlbs = [||];
    peer_crs = [||];
    peer_ids = [||];
    asid_residency = Array.make residency_init_slots 0;
    max_res_asid = -1;
    global_residency = 0;
    res_memo_asid = -1;
    res_memo_cpu = -1;
    shoot_targets = Array.make 8 0;
    shoot_ntargets = 0;
    word_hi = 0;
    mmu_fault = ref Mmu.fault_none;
    idtr = None;
    pending_interrupts = [];
    smm_owner = Smm_unprotected;
    smi_handler = None;
    in_nested_kernel = false;
    last_trap = None;
    coherence_hook = None;
    shootdown_notify = None;
    trace;
  }

let charge t c = Clock.charge t.clock c

(* Typed event accounting.  The typed [Nktrace] registry is the single
   counter store; its counters are always live (the ring and histograms
   stay gated behind [Nktrace.enable]).  Tracing never calls {!charge},
   so simulated cycle counts are independent of it by construction. *)
let count_ev t ev = Nktrace.count t.trace ev

(* Differential-oracle hooks (see {!Coherence}).  [va >= 0] asks for a
   targeted check of one translation just served by the MMU; [va = -1]
   asks for a full cross-check of every cached entry against the live
   page tables.  An int sentinel, not an option: the targeted check
   fires after every MMU access on an oracle run and a [Some va] box
   per access is exactly the kind of steady-state garbage the hot
   paths exclude.  With no hook installed both are a single match —
   the oracle-off overhead is zero cycles and zero allocation. *)
let coherence_check t ~op =
  match t.coherence_hook with None -> () | Some f -> f ~op ~va:(-1)

(* Host-side bookkeeping hook fired once per shootdown; the peer CPU
   ids actually flushed are in [shoot_targets.(0 .. shoot_ntargets-1)]
   (a preallocated scratch array — no list is built per IPI round).
   The SMP layer uses it to post [Shootdown] IPIs into exactly those
   mailboxes.  It must never charge cycles — the per-peer
   [ipi_shootdown] charge at the call sites already accounts for the
   hardware cost, and benches pin oracle-off runs to be
   cycle-identical with the hook installed or not. *)
let shootdown_notify_targets t =
  if t.shoot_ntargets > 0 then
    match t.shootdown_notify with None -> () | Some f -> f ()

(* --- per-ASID CPU residency --------------------------------------- *)

(* [asid_residency.(asid)] is the bitmask of CPUs that have run under
   that ASID since their last flush of it — a flat array indexed by
   the PCID, so the note is two loads and two stores.  It covers the
   ASIDs noted so far and reads as 0 past its end; [max_res_asid]
   bounds the sweep a CPU-wide clear must make.
   [global_residency] is the mask of CPUs that may cache global
   entries.  The tables are updated from the access path (memoized per
   (asid, active CPU), so the hot path is two integer compares) and
   cleared by the flush operations, which is what lets ASID-scoped
   shootdowns skip CPUs a process never visited.  Over-approximation
   is always sound — a spurious bit costs one extra IPI, never a stale
   translation — and the occupancy probe in the shootdown paths
   backstops any under-approximation. *)

let reset_residency_memo t =
  t.res_memo_asid <- -1;
  t.res_memo_cpu <- -1

(* Double the table until it covers [asid]. *)
let grow_residency t asid =
  let n = Array.length t.asid_residency in
  let n' = ref (2 * n) in
  while asid >= !n' do
    n' := 2 * !n'
  done;
  let a = Array.make !n' 0 in
  Array.blit t.asid_residency 0 a 0 n;
  t.asid_residency <- a

let note_residency t =
  if Cr.paging_enabled t.cr then begin
    let asid = Cr.asid t.cr in
    if asid <> t.res_memo_asid || t.cur_cpu <> t.res_memo_cpu then begin
      let bit = 1 lsl t.cur_cpu in
      if asid >= Array.length t.asid_residency then grow_residency t asid;
      t.asid_residency.(asid) <- t.asid_residency.(asid) lor bit;
      if asid > t.max_res_asid then t.max_res_asid <- asid;
      t.global_residency <- t.global_residency lor bit;
      t.res_memo_asid <- asid;
      t.res_memo_cpu <- t.cur_cpu
    end
  end

(* Explicit residency note at a CR3 load: the CPU is about to run
   under this ASID, so it joins the target set before the first access
   fills anything. *)
let note_asid_active t =
  reset_residency_memo t;
  note_residency t

let residency t ~asid =
  if asid < Array.length t.asid_residency then t.asid_residency.(asid) else 0

let resident t ~asid cpu = residency t ~asid land (1 lsl cpu) <> 0

(* CPU [cpu] just lost its non-global entries (CR3-reload-style flush):
   drop its bit from every ASID mask; [globals_too] also clears its
   global-residency bit.  [max_res_asid] stays an upper bound — never
   lowered, only reset when everything below it is provably zero. *)
let clear_cpu_residency t ~globals_too cpu =
  let bit = lnot (1 lsl cpu) in
  for a = 0 to t.max_res_asid do
    t.asid_residency.(a) <- t.asid_residency.(a) land bit
  done;
  if globals_too then t.global_residency <- t.global_residency land bit;
  reset_residency_memo t

let coherence_check_va t ~op va =
  match t.coherence_hook with None -> () | Some f -> f ~op ~va

(* The packed translation path everything below runs on: a
   non-negative result is [(pa lsl 1) lor hit], a negative one means
   the fault is in [t.mmu_fault].  Charges and event counts are
   identical to the historical record path; a steady-state TLB hit
   allocates nothing. *)
let translate_fast t ~ring ~kind va =
  note_residency t;
  let r = Mmu.access_fast t.mem t.cr t.tlb ~ring ~kind va ~fault:t.mmu_fault in
  if r >= 0 then begin
    let hit = r land 1 = 1 in
    charge t
      (if hit then t.costs.mem_insn else t.costs.mem_insn + t.costs.tlb_miss_walk);
    count_ev t (if hit then Nktrace.Tlb_hit else Nktrace.Tlb_miss);
    coherence_check_va t ~op:"mmu_access" va
  end;
  r

let read_u8 t ~ring va =
  let r = translate_fast t ~ring ~kind:Fault.Read va in
  if r >= 0 then Ok (Phys_mem.read_u8 t.mem (r lsr 1)) else Error !(t.mmu_fault)

let write_u8 t ~ring va v =
  let r = translate_fast t ~ring ~kind:Fault.Write va in
  if r >= 0 then Ok (Phys_mem.write_u8 t.mem (r lsr 1) v)
  else Error !(t.mmu_fault)

let in_page va = Addr.page_offset va <= Addr.page_size - 8

(* A word access that straddles a page boundary must check both pages,
   and its bytes past the boundary belong to the frame the second page
   maps, not to the frame physically after the first: a straddling
   word leaves that page's PA in [word_hi] for [load_word]/[store_word].
   Negative results propagate the fault left in [t.mmu_fault]. *)
let word_pa_fast t ~ring ~kind va =
  let r = translate_fast t ~ring ~kind va in
  if r < 0 || in_page va then r
  else
    let r2 = translate_fast t ~ring ~kind (Addr.align_up (va + 1)) in
    if r2 < 0 then r2
    else begin
      t.word_hi <- r2 lsr 1;
      r
    end

let load_word t va r =
  if in_page va then Phys_mem.read_u64 t.mem (r lsr 1)
  else Phys_mem.read_u64_split t.mem (r lsr 1) ~hi:t.word_hi

let store_word t va r v =
  if in_page va then Phys_mem.write_u64 t.mem (r lsr 1) v
  else Phys_mem.write_u64_split t.mem (r lsr 1) ~hi:t.word_hi v

let read_u64 t ~ring va =
  let r = word_pa_fast t ~ring ~kind:Fault.Read va in
  if r >= 0 then Ok (load_word t va r) else Error !(t.mmu_fault)

let write_u64 t ~ring va v =
  let r = word_pa_fast t ~ring ~kind:Fault.Write va in
  if r >= 0 then Ok (store_word t va r v) else Error !(t.mmu_fault)

let ( let* ) = Result.bind

(* Bulk access: process page by page, permission-checking each page
   once and charging bulk-copy costs rather than per-word costs (no
   [mem_insn] per page — only the walk cost on a miss). *)
let bulk t ~ring ~kind va len f =
  if len < 0 then invalid_arg "Machine: negative length";
  note_residency t;
  let rec go va remaining off =
    if remaining = 0 then Ok ()
    else
      let r = Mmu.access_fast t.mem t.cr t.tlb ~ring ~kind va ~fault:t.mmu_fault in
      if r < 0 then Error !(t.mmu_fault)
      else begin
        let hit = r land 1 = 1 in
        if not hit then charge t t.costs.tlb_miss_walk;
        count_ev t (if hit then Nktrace.Tlb_hit else Nktrace.Tlb_miss);
        coherence_check_va t ~op:"mmu_access" va;
        let chunk = min remaining (Addr.page_size - Addr.page_offset va) in
        charge t (t.costs.byte_copy_x8 * ((chunk + 7) / 8));
        f ~pa:(r lsr 1) ~off ~chunk;
        go (va + chunk) (remaining - chunk) (off + chunk)
      end
  in
  go va len 0

let read_bytes t ~ring va len =
  let buf = Bytes.create len in
  let* () =
    bulk t ~ring ~kind:Fault.Read va len (fun ~pa ~off ~chunk ->
        Phys_mem.blit_to_bytes t.mem pa buf off chunk)
  in
  Ok buf

let write_bytes t ~ring va buf =
  bulk t ~ring ~kind:Fault.Write va (Bytes.length buf)
    (fun ~pa ~off ~chunk -> Phys_mem.blit_from_bytes buf off t.mem pa chunk)

let kread_u64 t va = read_u64 t ~ring:Mmu.Supervisor va

(* Packed supervisor word read: the value (>= 0) or -1 when translation
   faults — same charges and TLB traffic as [kread_u64], no result box.
   Dispatch-path lookups (e.g. the syscall table) read through this. *)
let kread_word t va =
  let r = word_pa_fast t ~ring:Mmu.Supervisor ~kind:Fault.Read va in
  if r >= 0 then load_word t va r else -1
let kwrite_u64 t va v = write_u64 t ~ring:Mmu.Supervisor va v
let kread_bytes t va len = read_bytes t ~ring:Mmu.Supervisor va len
let kwrite_bytes t va b = write_bytes t ~ring:Mmu.Supervisor va b

let flush_full t =
  Tlb.flush_all t.tlb;
  clear_cpu_residency t ~globals_too:false t.cur_cpu;
  charge t t.costs.Costs.tlb_flush_full;
  count_ev t Nktrace.Tlb_flush_full;
  coherence_check t ~op:"flush_full"

(* Shared peer loop for the shootdown family: flush (and charge the
   IPI for) exactly the peers the scope targets.  Under [Broadcast]
   that is every peer; under [Asids asids] a peer is targeted when the
   residency table says it ran one of those ASIDs — or, the soundness
   backstop, when its TLB demonstrably still holds a live entry the
   flush must kill ([occupied]).  A peer whose id is unknown (a
   hand-assembled peer array outside {!Smp}) is always targeted.
   Leaves the flushed peer ids in the [shoot_targets] scratch for the
   notify hook — no per-shootdown list is built. *)
let shoot_peers t ~scope ~occupied ~flush =
  let n = Array.length t.peer_tlbs in
  if Array.length t.shoot_targets < n then t.shoot_targets <- Array.make n 0;
  let nids = Array.length t.peer_ids in
  let nt = ref 0 in
  for i = 0 to n - 1 do
    let tlb = t.peer_tlbs.(i) in
    let id = if i < nids then t.peer_ids.(i) else -1 in
    let targeted =
      match scope with
      | Broadcast -> true
      | Asids asids ->
          id < 0
          || List.exists (fun a -> resident t ~asid:a id) asids
          || occupied tlb
      | Cpuset mask -> id < 0 || mask land (1 lsl id) <> 0 || occupied tlb
    in
    if targeted then begin
      flush tlb;
      charge t t.costs.Costs.ipi_shootdown;
      count_ev t Nktrace.Shootdown_sent;
      if id >= 0 then begin
        t.shoot_targets.(!nt) <- id;
        incr nt
      end
    end
    else count_ev t Nktrace.Shootdown_filtered
  done;
  t.shoot_ntargets <- !nt

(* INVLPG reaches every ASID and the globals, so a single-page
   shootdown needs no extra cross-ASID work. *)
let shootdown_page ?(scope = Broadcast) t ~vpage =
  Tlb.flush_page t.tlb ~vpage;
  charge t t.costs.Costs.invlpg;
  count_ev t Nktrace.Tlb_flush_page;
  shoot_peers t ~scope
    ~occupied:(fun tlb -> Tlb.holds_span tlb ~vpage ~count:1)
    ~flush:(fun tlb -> Tlb.flush_page tlb ~vpage);
  shootdown_notify_targets t;
  coherence_check t ~op:"shootdown_page"

(* Range shootdown for a large-leaf downgrade: the MMU caches each of
   the 512 constituent 4 KiB translations separately, so one INVLPG
   per page is the honest model — capped at the cost of a full flush,
   which is what a real kernel would fall back to. *)
let shootdown_span ?(scope = Broadcast) t ~vpage ~count:n =
  Tlb.flush_span t.tlb ~vpage ~count:n;
  charge t (min (n * t.costs.Costs.invlpg) t.costs.Costs.tlb_flush_full);
  count_ev t Nktrace.Tlb_flush_span;
  shoot_peers t ~scope
    ~occupied:(fun tlb -> Tlb.holds_span tlb ~vpage ~count:n)
    ~flush:(fun tlb -> Tlb.flush_span tlb ~vpage ~count:n);
  shootdown_notify_targets t;
  coherence_check t ~op:"shootdown_span"

(* A broadcast shootdown backs protection downgrades whose VA is
   unknown; it must kill stale translations in every ASID {e and} the
   global set, or a downgraded kernel mapping could survive in the
   TLB.  Residency filtering never applies here — with no VA there is
   nothing to probe occupancy against. *)
let shootdown_all t =
  Tlb.flush_global_too t.tlb;
  clear_cpu_residency t ~globals_too:true t.cur_cpu;
  charge t t.costs.Costs.tlb_flush_full;
  count_ev t Nktrace.Tlb_flush_full;
  shoot_peers t ~scope:Broadcast
    ~occupied:(fun _ -> true)
    ~flush:(fun tlb -> Tlb.flush_global_too tlb);
  (* Every flushed peer lost all entries, globals included. *)
  for i = 0 to t.shoot_ntargets - 1 do
    clear_cpu_residency t ~globals_too:true t.shoot_targets.(i)
  done;
  shootdown_notify_targets t;
  coherence_check t ~op:"shootdown_all"

(* ASID-wide shootdown: the remote-capable [flush_asid] a PCID rebind
   or ASID-pool steal needs.  A local-only INVPCID would leave a
   parked peer's entries under this ASID live; when the ASID is then
   re-bound to another root, those entries alias the wrong address
   space — so flush the ASID on every CPU that is resident for it (or
   whose TLB demonstrably still holds it), then retire the residency
   mask entirely. *)
let shootdown_asid t ~asid =
  Tlb.flush_asid t.tlb ~asid;
  charge t t.costs.Costs.invpcid;
  count_ev t Nktrace.Tlb_flush_asid;
  shoot_peers t ~scope:(Asids [ asid ])
    ~occupied:(fun tlb -> Tlb.holds_asid tlb ~asid)
    ~flush:(fun tlb -> Tlb.flush_asid tlb ~asid);
  if asid < Array.length t.asid_residency then t.asid_residency.(asid) <- 0;
  reset_residency_memo t;
  shootdown_notify_targets t;
  coherence_check t ~op:"shootdown_asid"

let raise_interrupt t vector =
  t.pending_interrupts <- t.pending_interrupts @ [ vector ]

let idt_entry_va t vector =
  match t.idtr with None -> None | Some base -> Some (base + (vector * 8))

let read_idt_entry t vector =
  match idt_entry_va t vector with
  | None -> Error (Fault.General_protection "no IDT loaded")
  | Some va -> kread_u64 t va
