open Nkhw
open Nested_kernel

let setup () =
  let m, nk = Helpers.booted_nk () in
  (m, nk, Api.outer_first_frame nk)

let declare_ok nk ~level f = Helpers.check_ok "declare" (Api.declare_ptp nk ~level f)

let test_declare_and_write () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  Helpers.check_ok "write_pte"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
  let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:0 in
  Alcotest.(check int) "entry installed" (f0 + 1) (Pte.frame e);
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_declare_zeroes () =
  let m, nk, f0 = setup () in
  Phys_mem.write_u64 m.Machine.mem (Addr.pa_of_frame f0) 0xDEAD;
  declare_ok nk ~level:1 f0;
  Alcotest.(check int) "stale data gone" 0
    (Phys_mem.read_u64 m.Machine.mem (Addr.pa_of_frame f0))

let test_declare_write_protects_dmap () =
  let m, nk, f0 = setup () in
  Helpers.check_ok "write to plain frame"
    (Machine.kwrite_u64 m (Addr.kva_of_frame f0) 1);
  declare_ok nk ~level:1 f0;
  Helpers.expect_fault "direct store to declared PTP"
    (Machine.kwrite_u64 m (Addr.kva_of_frame f0) 2)

let test_declare_rejections () =
  let _, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  Helpers.expect_error "already declared" (Api.declare_ptp nk ~level:1 f0);
  Helpers.expect_error "nk-owned frame" (Api.declare_ptp nk ~level:1 2);
  Helpers.expect_error "bad level" (Api.declare_ptp nk ~level:5 (f0 + 1));
  Helpers.expect_error "out of range"
    (Api.declare_ptp nk ~level:1 100_000_000)

let test_write_pte_rejections () =
  let _, nk, f0 = setup () in
  declare_ok nk ~level:2 f0;
  declare_ok nk ~level:1 (f0 + 1);
  Helpers.expect_error "target not a PTP"
    (Api.write_pte nk ~ptp:(f0 + 5) ~index:0 Pte.empty);
  (* Non-leaf entry in a level-2 table must link a level-1 PTP. *)
  Helpers.expect_error "link to plain data"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 9) Pte.kernel_rw));
  Helpers.check_ok "link to declared level-1"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 1) Pte.kernel_rw));
  (* Wrong level: a level-2 PTP linked from a level-2 table. *)
  declare_ok nk ~level:2 (f0 + 2);
  Helpers.expect_error "wrong level link"
    (Api.write_pte nk ~ptp:f0 ~index:1 (Pte.make ~frame:(f0 + 2) Pte.kernel_rw))

let test_mapping_of_ptp_downgraded () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  declare_ok nk ~level:1 (f0 + 1);
  (* Try to map PTP (f0+1) writable through PT f0: forced read-only. *)
  Helpers.check_ok "write accepted"
    (Api.write_pte nk ~ptp:f0 ~index:7
       (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
  let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:7 in
  Alcotest.(check bool) "silently downgraded to RO (I5)" false (Pte.is_writable e);
  Alcotest.(check bool) "audit still clean" true (Api.audit_ok nk)

let test_mapping_of_nk_memory_downgraded () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  (* Frame 3 is nested-kernel stack memory. *)
  Helpers.check_ok "write accepted"
    (Api.write_pte nk ~ptp:f0 ~index:8 (Pte.make ~frame:3 Pte.user_rw_nx));
  let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:8 in
  Alcotest.(check bool) "forced RO" false (Pte.is_writable e);
  Alcotest.(check bool) "forced NX" true (Pte.is_nx e)

let test_data_mapping_forced_nx () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  (* Supervisor data mapping loses executability (code integrity). *)
  Helpers.check_ok "write accepted"
    (Api.write_pte nk ~ptp:f0 ~index:9
       (Pte.make ~frame:(f0 + 3) Pte.kernel_rw));
  let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:9 in
  Alcotest.(check bool) "NX forced on data" true (Pte.is_nx e)

let test_clear_entry_and_remove () =
  let _, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  Helpers.check_ok "map"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
  Helpers.expect_error "remove while entries present" (Api.remove_ptp nk f0);
  Helpers.check_ok "clear" (Api.write_pte nk ~ptp:f0 ~index:0 Pte.empty);
  Helpers.check_ok "remove" (Api.remove_ptp nk f0)

let test_remove_restores_write_access () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  Helpers.check_ok "remove" (Api.remove_ptp nk f0);
  Helpers.check_ok "frame writable again"
    (Machine.kwrite_u64 m (Addr.kva_of_frame f0) 0xAB);
  Alcotest.(check bool) "no longer IOMMU-protected" false
    (Iommu.is_protected m.Machine.iommu f0)

let test_remove_linked_ptp_rejected () =
  let _, nk, f0 = setup () in
  declare_ok nk ~level:2 f0;
  declare_ok nk ~level:1 (f0 + 1);
  Helpers.check_ok "link"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 1) Pte.kernel_rw));
  Helpers.expect_error "remove linked child" (Api.remove_ptp nk (f0 + 1));
  Helpers.expect_error "remove active root"
    (Api.remove_ptp nk (Cr.root_frame (Api.machine nk).Machine.cr))

let test_load_cr3 () =
  let m, nk, f0 = setup () in
  let old_root = Cr.root_frame m.Machine.cr in
  declare_ok nk ~level:4 f0;
  (* Keep the kernel half alive in the new root. *)
  for index = 256 to 511 do
    let e = Page_table.get_entry m.Machine.mem ~ptp:old_root ~index in
    if Pte.is_present e then
      Helpers.check_ok "copy kernel link" (Api.write_pte nk ~ptp:f0 ~index e)
  done;
  Helpers.check_ok "load declared PML4" (Api.load_cr3 nk f0);
  Alcotest.(check int) "CR3 switched" f0 (Cr.root_frame m.Machine.cr);
  Helpers.expect_error "undeclared PML4 rejected (I6)"
    (Api.load_cr3 nk (f0 + 1));
  declare_ok nk ~level:1 (f0 + 1);
  Helpers.expect_error "wrong-level PTP rejected" (Api.load_cr3 nk (f0 + 1));
  Alcotest.(check bool) "audit clean on new root" true (Api.audit_ok nk)

let test_control_register_policies () =
  let m, nk, _ = setup () in
  let cr0 = m.Machine.cr.Cr.cr0 in
  Helpers.expect_error "CR0 without WP (I8)"
    (Api.load_cr0 nk (cr0 land lnot Cr.cr0_wp));
  Helpers.expect_error "CR0 without PG (I7)"
    (Api.load_cr0 nk (cr0 land lnot Cr.cr0_pg));
  Helpers.check_ok "benign CR0" (Api.load_cr0 nk cr0);
  let cr4 = m.Machine.cr.Cr.cr4 in
  Helpers.expect_error "CR4 without SMEP"
    (Api.load_cr4 nk (cr4 land lnot Cr.cr4_smep));
  Helpers.check_ok "benign CR4" (Api.load_cr4 nk cr4);
  let efer = m.Machine.cr.Cr.efer in
  Helpers.expect_error "EFER without NX"
    (Api.load_efer nk (efer land lnot Cr.efer_nx));
  Helpers.expect_error "EFER without LME"
    (Api.load_efer nk (efer land lnot Cr.efer_lme));
  Helpers.check_ok "benign EFER" (Api.load_efer nk efer)

let test_batch_one_crossing () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  let updates =
    List.init 16 (fun i -> (f0, i, Pte.make ~frame:(f0 + 1 + i) Pte.user_rw_nx))
  in
  let w = Window.start m in
  Helpers.check_ok "batch" (Api.write_pte_batch nk updates);
  Alcotest.(check int) "one gate crossing" 1 (Window.count w Nktrace.Nk_enter);
  Alcotest.(check int) "all entries written" 16
    (Window.count w Nktrace.Pte_write);
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_batch_validates_each () =
  let _, nk, f0 = setup () in
  declare_ok nk ~level:2 f0;
  Helpers.expect_error "second update invalid"
    (Api.write_pte_batch nk
       [ (f0, 0, Pte.empty); (f0, 1, Pte.make ~frame:(f0 + 9) Pte.kernel_rw) ])

let test_large_page_span_validated () =
  (* A 2 MiB leaf covers 512 frames; if any of them is protected the
     whole mapping is forced read-only. *)
  let m, nk, f0 = setup () in
  declare_ok nk ~level:2 f0;
  (* Frame 0 starts a span that covers the whole nested kernel. *)
  Helpers.check_ok "large mapping accepted"
    (Api.write_pte nk ~ptp:f0 ~index:0
       (Pte.make ~frame:0 { Pte.user_rw_nx with large = true }));
  let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:0 in
  Alcotest.(check bool) "forced read-only across the span" false
    (Pte.is_writable e);
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk);
  (* A large page over plain outer memory stays writable. *)
  let plain = ((f0 + 511) / 512 * 512) + 512 in
  if Phys_mem.valid_frame m.Machine.mem (plain + 511) then begin
    Helpers.check_ok "plain large mapping"
      (Api.write_pte nk ~ptp:f0 ~index:1
         (Pte.make ~frame:plain { Pte.user_rw_nx with large = true }));
    let e = Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:1 in
    Alcotest.(check bool) "still writable" true (Pte.is_writable e)
  end

let test_reentrancy_lock () =
  let _, nk, _ = setup () in
  nk.State.lock_held <- true;
  (match Api.nk_null nk with
  | Error Nk_error.Reentrant_call -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Reentrant_call");
  nk.State.lock_held <- false;
  Helpers.check_ok "recovered" (Api.nk_null nk)

let test_tlb_shootdown_on_downgrade () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  let data = f0 + 1 in
  let va = 0x7000 in
  Helpers.check_ok "map rw"
    (Api.write_pte nk ~ptp:f0 ~index:7 (Pte.make ~frame:data Pte.user_rw_nx));
  (* Warm a TLB entry through a user-style walk of this PT; simulate by
     inserting what the MMU would cache. *)
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va)
    { Tlb.frame = data; writable = true; user = true; nx = true; global = false };
  Helpers.check_ok "downgrade to ro"
    (Api.write_pte nk ~ptp:f0 ~index:7 (Pte.make ~frame:data Pte.user_ro_nx));
  Alcotest.(check bool) "stale entry shot down" true
    (Tlb.lookup m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va) = None)

let test_load_cr3_pcid () =
  let m, nk, f0 = setup () in
  let old_root = Cr.root_frame m.Machine.cr in
  Helpers.check_ok "enable PCIDE"
    (Api.load_cr4 nk (m.Machine.cr.Cr.cr4 lor Cr.cr4_pcide));
  declare_ok nk ~level:4 f0;
  for index = 256 to 511 do
    let e = Page_table.get_entry m.Machine.mem ~ptp:old_root ~index in
    if Pte.is_present e then
      Helpers.check_ok "copy kernel link" (Api.write_pte nk ~ptp:f0 ~index e)
  done;
  Helpers.expect_error "pcid out of range"
    (Api.load_cr3_pcid nk ~pcid:(Cr.max_pcid + 1) f0);
  Helpers.expect_error "undeclared root rejected (I6)"
    (Api.load_cr3_pcid nk ~pcid:3 (f0 + 1));
  let w = Window.start m in
  let asid_flushes () = Window.count w Nktrace.Tlb_flush_asid in
  Helpers.check_ok "first tagged switch" (Api.load_cr3_pcid nk ~pcid:3 f0);
  Alcotest.(check int) "first use of the pair flushes the ASID" 1
    (asid_flushes ());
  Alcotest.(check int) "CR3 root" f0 (Cr.root_frame m.Machine.cr);
  Alcotest.(check int) "CR3 pcid" 3 (Cr.pcid m.Machine.cr);
  Helpers.check_ok "switch home" (Api.load_cr3_pcid nk ~pcid:0 old_root);
  Helpers.check_ok "clean-pair switch" (Api.load_cr3_pcid nk ~pcid:3 f0);
  Alcotest.(check int) "clean pairs skip the flush" 1 (asid_flushes ());
  Helpers.check_ok "rebind pcid 3" (Api.load_cr3_pcid nk ~pcid:3 old_root);
  Alcotest.(check int) "rebinding the pcid flushes it" 2 (asid_flushes ());
  Alcotest.(check int) "tagged switches never flush everything" 0
    (Window.count w Nktrace.Tlb_flush_full);
  (* An untagged switch forgets every binding — and must shoot each
     dropped tag down first (one ASID flush here for pcid 3), or a
     parked peer could keep entries under a tag the clean-pair table
     no longer accounts for.  The old pair then re-flushes on its
     next use, as any first use of a dirty pair does. *)
  Helpers.check_ok "untagged switch" (Api.load_cr3 nk old_root);
  Alcotest.(check int) "dropped binding shot down at the switch" 3
    (asid_flushes ());
  Helpers.check_ok "re-tagged switch" (Api.load_cr3_pcid nk ~pcid:3 f0);
  Alcotest.(check int) "binding was dropped" 4 (asid_flushes ());
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_cross_asid_shootdown () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  let data = f0 + 1 in
  let va = 0x7000 in
  Helpers.check_ok "map rw"
    (Api.write_pte nk ~ptp:f0 ~index:7 (Pte.make ~frame:data Pte.user_rw_nx));
  let entry =
    { Tlb.frame = data; writable = true; user = true; nx = true; global = false }
  in
  (* Translations parked in inactive ASIDs... *)
  Tlb.insert m.Machine.tlb ~asid:5 ~vpage:(Addr.vpage va) entry;
  Tlb.insert m.Machine.tlb ~asid:9 ~vpage:(Addr.vpage va) entry;
  Helpers.check_ok "downgrade to ro"
    (Api.write_pte nk ~ptp:f0 ~index:7 (Pte.make ~frame:data Pte.user_ro_nx));
  (* ...must not survive the downgrade in ANY of them. *)
  Alcotest.(check bool) "asid 5 entry shot down" true
    (Tlb.lookup m.Machine.tlb ~asid:5 ~vpage:(Addr.vpage va) = None);
  Alcotest.(check bool) "asid 9 entry shot down" true
    (Tlb.lookup m.Machine.tlb ~asid:9 ~vpage:(Addr.vpage va) = None);
  (* A downgrade with no known VA falls back to the global-too full
     flush: even global entries must die. *)
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage:0x9999
    { entry with Tlb.global = true };
  Helpers.check_ok "unmap without va" (Api.write_pte nk ~ptp:f0 ~index:7 Pte.empty);
  Alcotest.(check bool) "global entry flushed by blind downgrade" true
    (Tlb.lookup m.Machine.tlb ~asid:42 ~vpage:0x9999 = None)

(* --- stale-translation regression tests --------------------------- *)

(* Build a live user tree under the active root: root[0] -> PDPT f0 ->
   PD f0+1, all links present+writable+user so leaf permissions govern. *)
let linked_pd nk m f0 =
  let root = Cr.root_frame m.Machine.cr in
  declare_ok nk ~level:3 f0;
  declare_ok nk ~level:2 (f0 + 1);
  Helpers.check_ok_nk "link root->pdpt"
    (Api.write_pte nk ~ptp:root ~index:0 (Pte.make ~frame:f0 Pte.user_rw_nx));
  Helpers.check_ok_nk "link pdpt->pd"
    (Api.write_pte nk ~ptp:f0 ~index:0 (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
  f0 + 1

(* A supervisor leaf of a User frame is capped NX: user pages may be
   executable, but a writable+executable kernel alias of one is
   exactly what lifetime code integrity forbids. *)
let test_supervisor_leaf_of_user_frame_nx () =
  let m, nk, f0 = setup () in
  let pd = linked_pd nk m f0 in
  let pt = f0 + 2 and data = f0 + 3 in
  declare_ok nk ~level:1 pt;
  Helpers.check_ok_nk "link pd->pt"
    (Api.write_pte nk ~ptp:pd ~index:0 (Pte.make ~frame:pt Pte.user_rw_nx));
  Helpers.check_ok_nk "user leaf"
    (Api.write_pte nk ~ptp:pt ~index:0 (Pte.make ~frame:data Pte.user_rw_nx));
  Alcotest.(check bool) "typed User" true
    (Pgdesc.page_type nk.State.descs data = Pgdesc.User);
  Helpers.check_ok_nk "supervisor leaf"
    (Api.write_pte nk ~ptp:pt ~index:1 (Pte.make ~frame:data Pte.kernel_rw));
  let e = Page_table.get_entry m.Machine.mem ~ptp:pt ~index:1 in
  Alcotest.(check bool) "installed NX" true (Pte.is_nx e);
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let test_large_leaf_downgrade_flushes_span () =
  let m, nk, f0 = setup () in
  let pd = linked_pd nk m f0 in
  (* A 2 MiB user leaf over plain memory at VA 0: 512 frames from a
     512-aligned span above the outer window. *)
  let span = ((f0 + 511) / 512 * 512) + 512 in
  Alcotest.(check bool) "span fits" true
    (Phys_mem.valid_frame m.Machine.mem (span + 511));
  let large flags = { flags with Pte.large = true } in
  Helpers.check_ok_nk "map 2MiB rw"
    (Api.write_pte nk ~ptp:pd ~index:0
       (Pte.make ~frame:span (large Pte.user_rw_nx)));
  (* Warm a translation for a page in the middle of the leaf — NOT the
     first page of the span. *)
  let va = 0x1000 in
  Helpers.check_ok "user write while rw"
    (Machine.write_u64 m ~ring:Mmu.User va 0xAA);
  (* Downgrade the whole leaf to read-only.  The historical bug: only
     the first vpage was flushed, leaving 511 stale-writable
     translations; the stale entry at vpage 1 let user writes land on
     a read-only mapping. *)
  Helpers.check_ok_nk "downgrade 2MiB to ro"
    (Api.write_pte nk ~ptp:pd ~index:0
       (Pte.make ~frame:span (large Pte.user_ro_nx)));
  (* The faulting access below re-walks and re-caches the entry with
     its new read-only permissions, so the assertion is on the cached
     writable bit, not on absence. *)
  Helpers.expect_fault "write now faults despite warm TLB"
    (Machine.write_u64 m ~ring:Mmu.User (va + 8) 0xBB);
  (match Tlb.peek m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va) with
  | Some e ->
      Alcotest.(check bool) "no stale writable entry" false e.Tlb.writable
  | None -> ());
  Alcotest.(check int) "no coherence violations" 0
    (List.length (Api.Diagnostics.Coherence.snapshot nk))

let test_downgrade_scope_from_reverse_maps () =
  let m, nk, f0 = setup () in
  let pd = linked_pd nk m f0 in
  declare_ok nk ~level:1 (f0 + 2);
  Helpers.check_ok_nk "link pd->pt"
    (Api.write_pte nk ~ptp:pd ~index:0 (Pte.make ~frame:(f0 + 2) Pte.user_rw_nx));
  let va = Addr.make_va ~pml4:0 ~pdpt:0 ~pd:0 ~pt:5 ~offset:0 in
  Helpers.check_ok_nk "map page rw"
    (Api.write_pte nk ~ptp:(f0 + 2) ~index:5
       (Pte.make ~frame:(f0 + 3) Pte.user_rw_nx));
  Helpers.check_ok "user write while rw" (Machine.write_u64 m ~ring:Mmu.User va 1);
  (* No caller hint exists any more: the shootdown scope must come
     entirely from the vMMU's reverse maps, which place this entry at
     [va]'s vpage. *)
  Helpers.check_ok_nk "downgrade"
    (Api.write_pte nk ~ptp:(f0 + 2) ~index:5
       (Pte.make ~frame:(f0 + 3) Pte.user_ro_nx));
  Helpers.expect_fault "stale writable entry unusable"
    (Machine.write_u64 m ~ring:Mmu.User (va + 8) 2);
  (match Tlb.peek m.Machine.tlb ~asid:0 ~vpage:(Addr.vpage va) with
  | Some e ->
      Alcotest.(check bool) "no stale writable entry" false e.Tlb.writable
  | None -> ())

let test_batch_error_reports_failing_index () =
  let m, nk, f0 = setup () in
  declare_ok nk ~level:1 f0;
  let item i target = (f0, i, Pte.make ~frame:target Pte.user_rw_nx) in
  (match
     Api.write_pte_batch nk
       [
         item 0 (f0 + 1);
         (f0 + 9, 0, Pte.make ~frame:(f0 + 1) Pte.user_rw_nx);
         item 2 (f0 + 2);
       ]
   with
  | Error (Nk_error.Batch_item { index = 1; error = Nk_error.Not_a_ptp _ }) -> ()
  | Ok () -> Alcotest.fail "batch with invalid tuple must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Nk_error.to_string e));
  (* Prefix-applied semantics: tuple 0 landed, tuple 2 did not. *)
  Alcotest.(check int) "tuple 0 applied" (f0 + 1)
    (Pte.frame (Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:0));
  Alcotest.(check bool) "tuple 2 not applied" false
    (Pte.is_present (Page_table.get_entry m.Machine.mem ~ptp:f0 ~index:2))

let test_remove_ptp_shoots_down_peers () =
  let m, nk, f0 = setup () in
  let smp = Smp.create m in
  let ap = Smp.add_cpu smp in
  declare_ok nk ~level:1 f0;
  (* Park a read-only direct-map translation in the peer's TLB... *)
  Smp.with_cpu smp ap (fun () ->
      Helpers.check_ok "read on AP" (Machine.kread_u64 m (Addr.kva_of_frame f0)));
  Helpers.check_ok_nk "remove" (Api.remove_ptp nk f0);
  (* ...and make sure handing the frame back reached that CPU: the bug
     flushed only the active TLB, so the AP took a spurious WP fault
     on its first write to the returned page. *)
  Smp.with_cpu smp ap (fun () ->
      Helpers.check_ok "AP write after remove"
        (Machine.kwrite_u64 m (Addr.kva_of_frame f0) 0xCD))

(* Unmap the direct-map page holding [frame]'s PTEs, so that in-gate
   writes to entries stored in [frame] fault. *)
let unmap_dmap_of_ptes nk m frame =
  let root = Cr.root_frame m.Machine.cr in
  match Page_table.walk m.Machine.mem ~root (Addr.kva_of_frame frame) with
  | Page_table.Not_mapped _ -> Alcotest.fail "direct map must cover the frame"
  | Page_table.Mapped w ->
      Helpers.check_ok_nk "unmap pte page"
        (Api.write_pte nk ~ptp:w.Page_table.leaf_ptp ~index:w.Page_table.leaf_index
           Pte.empty)

let test_declare_aborts_on_failed_write_protect () =
  let m, nk, f0 = setup () in
  let target = f0 in
  (* Find the PT page holding target's direct-map PTE, then unmap THAT
     page's own mapping: the declare's write-protect store will fault. *)
  let root = Cr.root_frame m.Machine.cr in
  let pt =
    match Page_table.walk m.Machine.mem ~root (Addr.kva_of_frame target) with
    | Page_table.Mapped w -> w.Page_table.leaf_ptp
    | Page_table.Not_mapped _ -> Alcotest.fail "dmap must cover target"
  in
  unmap_dmap_of_ptes nk m pt;
  (match Api.declare_ptp nk ~level:1 target with
  | Error (Nk_error.Hardware _) -> ()
  | Ok () -> Alcotest.fail "declare must fail when write-protect fails"
  | Error e -> Alcotest.failf "wrong error: %s" (Nk_error.to_string e));
  (* The bug: the declaration went through anyway, registering a PTP
     whose direct-map leaf was still writable. *)
  Alcotest.(check bool) "frame not registered as PTP" false
    (Pgdesc.is_ptp nk.State.descs target)

let test_remove_aborts_on_failed_unprotect () =
  let m, nk, f0 = setup () in
  let target = f0 in
  declare_ok nk ~level:1 target;
  let root = Cr.root_frame m.Machine.cr in
  let pt =
    match Page_table.walk m.Machine.mem ~root (Addr.kva_of_frame target) with
    | Page_table.Mapped w -> w.Page_table.leaf_ptp
    | Page_table.Not_mapped _ -> Alcotest.fail "dmap must cover target"
  in
  unmap_dmap_of_ptes nk m pt;
  (match Api.remove_ptp nk target with
  | Error (Nk_error.Hardware _) -> ()
  | Ok () -> Alcotest.fail "remove must fail when the PTE write fails"
  | Error e -> Alcotest.failf "wrong error: %s" (Nk_error.to_string e));
  (* The frame must still be a protected PTP — in particular still
     IOMMU-protected, or DMA could write a page the direct map calls
     read-only. *)
  Alcotest.(check bool) "still a PTP" true (Pgdesc.is_ptp nk.State.descs target);
  Alcotest.(check bool) "still IOMMU-protected" true
    (Iommu.is_protected m.Machine.iommu target)

let suite =
  [
    Alcotest.test_case "declare and write" `Quick test_declare_and_write;
    Alcotest.test_case "declare zeroes the page" `Quick test_declare_zeroes;
    Alcotest.test_case "declare write-protects the direct map" `Quick
      test_declare_write_protects_dmap;
    Alcotest.test_case "declare rejections" `Quick test_declare_rejections;
    Alcotest.test_case "write_pte rejections (I4)" `Quick test_write_pte_rejections;
    Alcotest.test_case "PTP mappings forced RO (I5)" `Quick
      test_mapping_of_ptp_downgraded;
    Alcotest.test_case "NK memory mappings forced RO" `Quick
      test_mapping_of_nk_memory_downgraded;
    Alcotest.test_case "data mappings forced NX" `Quick test_data_mapping_forced_nx;
    Alcotest.test_case "clear then remove PTP" `Quick test_clear_entry_and_remove;
    Alcotest.test_case "remove restores write access" `Quick
      test_remove_restores_write_access;
    Alcotest.test_case "remove of linked/active PTP rejected" `Quick
      test_remove_linked_ptp_rejected;
    Alcotest.test_case "load_cr3 validation (I6)" `Quick test_load_cr3;
    Alcotest.test_case "control-register policies (I7/I8)" `Quick
      test_control_register_policies;
    Alcotest.test_case "batch under one crossing" `Quick test_batch_one_crossing;
    Alcotest.test_case "batch validates every entry" `Quick
      test_batch_validates_each;
    Alcotest.test_case "large-page span validation (I5)" `Quick
      test_large_page_span_validated;
    Alcotest.test_case "reentrancy lock" `Quick test_reentrancy_lock;
    Alcotest.test_case "TLB shootdown on downgrade" `Quick
      test_tlb_shootdown_on_downgrade;
    Alcotest.test_case "load_cr3_pcid validation and clean pairs" `Quick
      test_load_cr3_pcid;
    Alcotest.test_case "cross-ASID shootdown on downgrade" `Quick
      test_cross_asid_shootdown;
    Alcotest.test_case "2MiB-leaf downgrade flushes the whole span" `Quick
      test_large_leaf_downgrade_flushes_span;
    Alcotest.test_case "downgrade scope comes from the reverse maps" `Quick
      test_downgrade_scope_from_reverse_maps;
    Alcotest.test_case "batch error carries the failing index" `Quick
      test_batch_error_reports_failing_index;
    Alcotest.test_case "remove_ptp shoots down parked peers" `Quick
      test_remove_ptp_shoots_down_peers;
    Alcotest.test_case "declare aborts on failed write-protect" `Quick
      test_declare_aborts_on_failed_write_protect;
    Alcotest.test_case "remove aborts on failed unprotect" `Quick
      test_remove_aborts_on_failed_unprotect;
    Alcotest.test_case "supervisor leaf of a user frame is NX" `Quick
      test_supervisor_leaf_of_user_frame_nx;
  ]
