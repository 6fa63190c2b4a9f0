open Nkhw
open Nested_kernel

(* The differential TLB-coherence oracle: the reference walker must
   agree with the hardware walk, the checker must flag exactly the
   stale-and-more-permissive entries (on any CPU), and a nested kernel
   exercised through its API must never trip it. *)

let setup () =
  let m, nk = Helpers.booted_nk () in
  (m, nk, Api.outer_first_frame nk)

let root m = Cr.root_frame m.Machine.cr

let test_reference_matches_walk () =
  let m, _, f0 = setup () in
  let vas =
    [ Addr.kva_of_frame 0; Addr.kva_of_frame f0; Addr.kva_of_frame (f0 + 37) ]
  in
  List.iter
    (fun va ->
      match
        ( Coherence.reference_translate m.Machine.mem ~root:(root m) va,
          Page_table.walk m.Machine.mem ~root:(root m) va )
      with
      | Some w, Page_table.Mapped hw ->
          Alcotest.(check int) "frame" hw.Page_table.frame w.Coherence.w_frame;
          Alcotest.(check bool) "writable" hw.Page_table.writable w.Coherence.w_writable;
          Alcotest.(check bool) "user" hw.Page_table.user w.Coherence.w_user;
          Alcotest.(check bool) "nx" hw.Page_table.nx w.Coherence.w_nx
      | None, Page_table.Not_mapped _ -> ()
      | Some _, Page_table.Not_mapped _ | None, Page_table.Mapped _ ->
          Alcotest.failf "walkers disagree at %#x" va)
    vas;
  (* An address the direct map does not cover. *)
  Alcotest.(check bool) "unmapped VA" true
    (Coherence.reference_translate m.Machine.mem ~root:(root m) 0x7777000
    = None)

let test_flags_stale_writable () =
  let m, _, f0 = setup () in
  (* Frame 2 is nested-kernel memory: its direct-map leaf is read-only
     in the tree.  A writable cached entry for it is exactly the
     stale-downgrade hazard. *)
  let vpage = Addr.vpage (Addr.kva_of_frame 2) in
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage
    { Tlb.frame = 2; writable = true; user = false; nx = true; global = false };
  (match Coherence.check_machine m with
  | [ v ] ->
      Alcotest.(check int) "cpu" 0 v.Coherence.v_cpu;
      Alcotest.(check int) "vpage" vpage v.Coherence.v_vpage;
      Alcotest.(check bool) "why mentions writable" true
        (Astring_contains.contains v.Coherence.v_why "writable")
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* The targeted per-VA check sees it too. *)
  Alcotest.(check int) "check_va agrees" 1
    (List.length (Coherence.check_va m (Addr.kva_of_frame 2)));
  ignore f0

let test_flags_unmapped_cached () =
  let m, _, _ = setup () in
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage:0x7777
    { Tlb.frame = 42; writable = false; user = false; nx = true; global = false };
  match Coherence.check_machine m with
  | [ v ] ->
      Alcotest.(check bool) "walked is None" true (v.Coherence.v_walked = None)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_less_permissive_not_flagged () =
  let m, _, f0 = setup () in
  (* The tree maps outer frame f0's direct-map page RW; a cached
     read-only entry is stale but harmless (spurious fault only). *)
  let vpage = Addr.vpage (Addr.kva_of_frame f0) in
  Tlb.insert m.Machine.tlb ~asid:0 ~vpage
    { Tlb.frame = f0; writable = false; user = false; nx = true; global = false };
  Alcotest.(check int) "no violation" 0
    (List.length (Coherence.check_machine m))

let test_unresolvable_asid_skipped () =
  let m, _, f0 = setup () in
  (* An entry under an ASID nobody can resolve is unreachable (a PCID
     rebind flushes before reuse) and must not be audited. *)
  Tlb.insert m.Machine.tlb ~asid:77 ~vpage:0x1234
    { Tlb.frame = f0; writable = true; user = true; nx = false; global = false };
  Alcotest.(check int) "skipped" 0 (List.length (Coherence.check_machine m))

let test_enabled_oracle_raises_on_rogue_pte_write () =
  let m, nk, f0 = setup () in
  Api.Diagnostics.Coherence.enable nk;
  (* Warm the direct-map translation of a plain outer frame... *)
  Helpers.check_ok "warm" (Machine.kread_u64 m (Addr.kva_of_frame f0));
  (* ...then clear its writable bit behind the vMMU's back (a raw DRAM
     store, the kind of update the nested kernel exists to prevent) —
     no shootdown happens, so the cache is now more permissive than
     the tree. *)
  (match Page_table.walk m.Machine.mem ~root:(root m) (Addr.kva_of_frame f0) with
  | Page_table.Mapped w ->
      let pa =
        Page_table.entry_pa ~ptp:w.Page_table.leaf_ptp
          ~index:w.Page_table.leaf_index
      in
      let e = Phys_mem.read_u64 m.Machine.mem pa in
      Phys_mem.write_u64 m.Machine.mem pa (Pte.set_writable e false)
  | Page_table.Not_mapped _ -> Alcotest.fail "dmap page must be mapped");
  (match Machine.kwrite_u64 m (Addr.kva_of_frame f0) 1 with
  | exception Coherence.Violation (v :: _) ->
      Alcotest.(check int) "active cpu" 0 v.Coherence.v_cpu
  | exception exn -> raise exn
  | Ok () | Error _ -> Alcotest.fail "oracle should have flagged the write");
  Api.Diagnostics.Coherence.disable nk

let test_flags_stale_peer_entry () =
  let m, nk, f0 = setup () in
  let smp = Smp.create m in
  let ap = Smp.add_cpu smp in
  (* Warm the AP's TLB with the direct-map translation... *)
  Smp.with_cpu smp ap (fun () ->
      Helpers.check_ok "warm on AP" (Machine.kread_u64 m (Addr.kva_of_frame f0)));
  (* ...then downgrade the mapping behind the vMMU's back.  The parked
     peer still caches it writable. *)
  (match Page_table.walk m.Machine.mem ~root:(root m) (Addr.kva_of_frame f0) with
  | Page_table.Mapped w ->
      let pa =
        Page_table.entry_pa ~ptp:w.Page_table.leaf_ptp
          ~index:w.Page_table.leaf_index
      in
      let e = Phys_mem.read_u64 m.Machine.mem pa in
      Phys_mem.write_u64 m.Machine.mem pa (Pte.set_writable e false)
  | Page_table.Not_mapped _ -> Alcotest.fail "dmap page must be mapped");
  (match Api.Diagnostics.Coherence.snapshot nk with
  | [ v ] -> Alcotest.(check int) "parked peer flagged" 1 v.Coherence.v_cpu
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* A proper broadcast shootdown clears the incoherence. *)
  Machine.shootdown_page m ~vpage:(Addr.vpage (Addr.kva_of_frame f0));
  Alcotest.(check int) "clean after shootdown" 0
    (List.length (Api.Diagnostics.Coherence.snapshot nk))

(* Violations name the CPU that holds the entry: with CPU 1 active, a
   stale entry in CPU 0's parked TLB is CPU 0's, and one in the active
   TLB is CPU 1's, in the full audit and the targeted check alike. *)
let test_violation_names_the_cpu () =
  let m, nk, f0 = setup () in
  let smp = Smp.create m in
  let ap = Smp.add_cpu smp in
  let va = Addr.kva_of_frame f0 in
  Helpers.check_ok "warm on cpu 0" (Machine.kread_u64 m va);
  Smp.activate smp ap;
  (match Page_table.walk m.Machine.mem ~root:(root m) va with
  | Page_table.Mapped w ->
      let pa =
        Page_table.entry_pa ~ptp:w.Page_table.leaf_ptp
          ~index:w.Page_table.leaf_index
      in
      let e = Phys_mem.read_u64 m.Machine.mem pa in
      Phys_mem.write_u64 m.Machine.mem pa (Pte.set_writable e false)
  | Page_table.Not_mapped _ -> Alcotest.fail "dmap page must be mapped");
  let cpus vs = List.map (fun v -> v.Coherence.v_cpu) vs in
  Alcotest.(check (list int)) "parked cpu 0 named" [ 0 ]
    (cpus (Api.Diagnostics.Coherence.snapshot nk));
  Tlb.insert m.Machine.tlb ~asid:(Cr.asid m.Machine.cr) ~vpage:(Addr.vpage va)
    { Tlb.frame = f0; writable = true; user = false; nx = true; global = false };
  Alcotest.(check (list int)) "full audit names both" [ 0; ap ]
    (List.sort compare (cpus (Api.Diagnostics.Coherence.snapshot nk)));
  Alcotest.(check (list int)) "targeted check names the active CPU" [ ap ]
    (cpus (Coherence.check_va m va))

(* The oracle skips a targeted check whose clean verdict it already
   holds for the same mutation stamp, CR3 root and ASID, page and CPU.
   Each case below changes exactly one of root, ASID and CPU between a
   clean check and a read served by a stale entry, with no store, fill
   or flush in between, so the stamp alone would let the stale entry
   through. *)
let collecting m =
  let seen = ref [] in
  Coherence.enable ~on_violation:(fun vs -> seen := !seen @ vs) m;
  seen

let cached ~frame ~writable =
  { Tlb.frame; writable; user = false; nx = true; global = false }

let test_memo_keyed_on_root () =
  let m, _, f0 = setup () in
  let va = Addr.kva_of_frame f0 in
  let bare = f0 + 40 in
  Phys_mem.zero_frame m.Machine.mem bare;
  let seen = collecting m in
  Helpers.check_ok "checked clean" (Machine.kread_u64 m va);
  Alcotest.(check int) "clean under the live root" 0 (List.length !seen);
  (* A raw CR3 load to an empty root, same ASID, no flush. *)
  m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame bare;
  Helpers.check_ok "served from the TLB" (Machine.kread_u64 m va);
  Alcotest.(check int) "stale under the new root" 1 (List.length !seen)

let test_memo_keyed_on_asid () =
  let m, _, _ = setup () in
  (* Frame 2 is nested-kernel memory, read-only in the tree. *)
  let va = Addr.kva_of_frame 2 in
  let vpage = Addr.vpage va and r = root m in
  Tlb.flush_global_too m.Machine.tlb;
  m.Machine.cr.Cr.cr4 <- m.Machine.cr.Cr.cr4 lor Cr.cr4_pcide;
  m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:r ~pcid:1;
  Tlb.insert m.Machine.tlb ~asid:1 ~vpage (cached ~frame:2 ~writable:false);
  Tlb.insert m.Machine.tlb ~asid:2 ~vpage (cached ~frame:2 ~writable:true);
  let seen = collecting m in
  Helpers.check_ok "checked clean" (Machine.kread_u64 m va);
  Alcotest.(check int) "clean under PCID 1" 0 (List.length !seen);
  m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:r ~pcid:2;
  Helpers.check_ok "served from the TLB" (Machine.kread_u64 m va);
  Alcotest.(check int) "stale under PCID 2" 1 (List.length !seen)

let test_memo_per_cpu () =
  let m, _, _ = setup () in
  let va = Addr.kva_of_frame 2 in
  let vpage = Addr.vpage va and asid = Cr.asid m.Machine.cr in
  let tlb0 = m.Machine.tlb and tlb1 = Tlb.create () in
  Tlb.flush_global_too tlb0;
  Tlb.insert tlb0 ~asid ~vpage (cached ~frame:2 ~writable:false);
  Tlb.insert tlb1 ~asid ~vpage (cached ~frame:2 ~writable:true);
  m.Machine.peer_tlbs <- [| tlb1 |];
  m.Machine.peer_ids <- [| 1 |];
  let seen = collecting m in
  Helpers.check_ok "checked clean on CPU 0" (Machine.kread_u64 m va);
  Alcotest.(check int) "clean on CPU 0" 0 (List.length !seen);
  (* A raw switch to CPU 1: the TLBs trade places, so the stamp, a sum
     over every TLB, does not move. *)
  m.Machine.tlb <- tlb1;
  m.Machine.peer_tlbs <- [| tlb0 |];
  m.Machine.peer_ids <- [| 0 |];
  m.Machine.cur_cpu <- 1;
  Helpers.check_ok "served from CPU 1's TLB" (Machine.kread_u64 m va);
  Alcotest.(check (list int)) "CPU 1's stale entry flagged" [ 1 ]
    (List.map (fun v -> v.Coherence.v_cpu) !seen)

let test_api_lifecycle_clean_under_oracle () =
  let m, nk, f0 = setup () in
  Api.Diagnostics.Coherence.enable nk;
  (* A full declare/map/downgrade/unmap/remove cycle with warm TLBs on
     two CPUs: the vMMU's shootdown discipline must keep the oracle
     silent throughout (it raises from the hooks otherwise). *)
  let smp = Smp.create m in
  let ap = Smp.add_cpu smp in
  let touch f =
    Helpers.check_ok "touch" (Machine.kread_u64 m (Addr.kva_of_frame f))
  in
  touch f0;
  Smp.with_cpu smp ap (fun () -> touch f0);
  Helpers.check_ok_nk "declare" (Api.declare_ptp nk ~level:1 f0);
  Helpers.check_ok_nk "map"
    (Api.write_pte nk ~ptp:f0 ~index:3 (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
  Helpers.check_ok_nk "downgrade"
    (Api.write_pte nk ~ptp:f0 ~index:3 (Pte.make ~frame:(f0 + 1) Pte.user_ro_nx));
  Helpers.check_ok_nk "unmap" (Api.write_pte nk ~ptp:f0 ~index:3 Pte.empty);
  Helpers.check_ok_nk "remove" (Api.remove_ptp nk f0);
  touch f0;
  Smp.with_cpu smp ap (fun () -> touch f0);
  Alcotest.(check int) "no violations" 0
    (List.length (Api.Diagnostics.Coherence.snapshot nk));
  Api.Diagnostics.Coherence.disable nk

let test_oracle_off_costs_nothing () =
  (* With no hook installed the check sites must not charge cycles or
     touch counters: two identical machines, one having had an oracle
     installed and removed, stay cycle-identical. *)
  let run enable =
    let m, nk, f0 = setup () in
    if enable then begin
      Api.Diagnostics.Coherence.enable nk;
      Api.Diagnostics.Coherence.disable nk
    end;
    Helpers.check_ok_nk "declare" (Api.declare_ptp nk ~level:1 f0);
    Helpers.check_ok_nk "map"
      (Api.write_pte nk ~ptp:f0 ~index:0
         (Pte.make ~frame:(f0 + 1) Pte.user_rw_nx));
    Helpers.check_ok_nk "remove-map" (Api.write_pte nk ~ptp:f0 ~index:0 Pte.empty);
    Clock.cycles m.Machine.clock
  in
  Alcotest.(check int) "cycle-identical" (run false) (run true)

let test_tlb_flush_span () =
  let t = Tlb.create () in
  let e g =
    { Tlb.frame = 1; writable = true; user = false; nx = true; global = g }
  in
  for vp = 10 to 15 do
    Tlb.insert t ~asid:0 ~vpage:vp (e false);
    Tlb.insert t ~asid:7 ~vpage:vp (e false)
  done;
  Tlb.insert t ~asid:0 ~vpage:12 (e true);
  Tlb.flush_span t ~vpage:11 ~count:3;
  for vp = 11 to 13 do
    Alcotest.(check bool)
      (Printf.sprintf "vpage %d flushed" vp)
      true
      (Tlb.peek t ~asid:0 ~vpage:vp = None
      && Tlb.peek t ~asid:7 ~vpage:vp = None)
  done;
  Alcotest.(check bool) "vpage 10 survives" true
    (Tlb.peek t ~asid:0 ~vpage:10 <> None);
  Alcotest.(check bool) "vpage 14 survives" true
    (Tlb.peek t ~asid:7 ~vpage:14 <> None)

let suite =
  [
    Alcotest.test_case "reference walker matches hardware walk" `Quick
      test_reference_matches_walk;
    Alcotest.test_case "stale writable entry flagged" `Quick
      test_flags_stale_writable;
    Alcotest.test_case "cached entry for unmapped VA flagged" `Quick
      test_flags_unmapped_cached;
    Alcotest.test_case "less-permissive staleness tolerated" `Quick
      test_less_permissive_not_flagged;
    Alcotest.test_case "unresolvable ASIDs skipped" `Quick
      test_unresolvable_asid_skipped;
    Alcotest.test_case "rogue PTE downgrade raises" `Quick
      test_enabled_oracle_raises_on_rogue_pte_write;
    Alcotest.test_case "stale parked-peer entry flagged" `Quick
      test_flags_stale_peer_entry;
    Alcotest.test_case "violations name the CPU" `Quick
      test_violation_names_the_cpu;
    Alcotest.test_case "memo keyed on the CR3 root" `Quick
      test_memo_keyed_on_root;
    Alcotest.test_case "memo keyed on the ASID" `Quick test_memo_keyed_on_asid;
    Alcotest.test_case "memo kept per CPU" `Quick test_memo_per_cpu;
    Alcotest.test_case "API lifecycle clean under the oracle" `Quick
      test_api_lifecycle_clean_under_oracle;
    Alcotest.test_case "oracle off costs zero cycles" `Quick
      test_oracle_off_costs_nothing;
    Alcotest.test_case "Tlb.flush_span range semantics" `Quick
      test_tlb_flush_span;
  ]
