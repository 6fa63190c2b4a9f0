open Nkhw
open Nested_kernel

let violated st inv =
  List.exists (fun v -> v.Invariants.invariant = inv) (Api.audit st)

let test_fresh_boot_clean () =
  let _, nk = Helpers.booted_nk () in
  Alcotest.(check (list reject)) "no violations" []
    (List.map (fun _ -> ()) (Api.audit nk))

let test_detects_wp_clear () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.cr.Cr.cr0 <- m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp;
  Alcotest.(check bool) "I8 flagged" true (violated nk "I8")

let test_detects_paging_off () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.cr.Cr.cr0 <- m.Machine.cr.Cr.cr0 land lnot Cr.cr0_pg;
  Alcotest.(check bool) "I7 flagged" true (violated nk "I7")

let test_wp_clear_tolerated_inside_nk () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.in_nested_kernel <- true;
  m.Machine.cr.Cr.cr0 <- m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp;
  Alcotest.(check bool) "not flagged inside the nested kernel" false
    (violated nk "I8")

let test_detects_smep_nx_clear () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.cr.Cr.cr4 <- m.Machine.cr.Cr.cr4 land lnot Cr.cr4_smep;
  m.Machine.cr.Cr.efer <- m.Machine.cr.Cr.efer land lnot Cr.efer_nx;
  Alcotest.(check bool) "code-integrity flags" true (violated nk "CI")

let test_detects_rogue_cr3 () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame (Api.outer_first_frame nk);
  Alcotest.(check bool) "I6 flagged" true (violated nk "I6")

let test_detects_writable_ptp_mapping () =
  let m, nk = Helpers.booted_nk () in
  (* Corrupt hardware state behind the nested kernel's back: make the
     direct-map leaf of a boot PTP writable. *)
  let root = nk.State.root_pml4 in
  (match
     Page_table.walk m.Machine.mem ~root (Addr.kva_of_frame root)
   with
  | Page_table.Mapped w ->
      Page_table.set_entry m.Machine.mem ~ptp:w.Page_table.leaf_ptp
        ~index:w.Page_table.leaf_index
        (Pte.make ~frame:root Pte.kernel_rw)
  | Page_table.Not_mapped _ -> Alcotest.fail "dmap leaf missing");
  Alcotest.(check bool) "I5 flagged" true (violated nk "I5")

let test_detects_undeclared_table_link () =
  let m, nk = Helpers.booted_nk () in
  let root = nk.State.root_pml4 in
  (* Splice a random frame in as a PDPT. *)
  Page_table.set_entry m.Machine.mem ~ptp:root ~index:5
    (Pte.make ~frame:(Api.outer_first_frame nk + 7) Pte.kernel_rw);
  Alcotest.(check bool) "I4 flagged" true (violated nk "I4");
  (* The splice also bypassed the reverse map. *)
  Alcotest.(check bool) "RMAP flagged" true (violated nk "RMAP")

(* A raw store can name a frame past the end of memory.  The audit
   reports it under the invariant it breaks and neither walks nor
   indexes past memory (the booted machine has 2048 frames). *)
let beyond_memory = 1_000_000

let test_cr3_outside_memory () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame beyond_memory;
  Alcotest.(check bool) "I6 flagged" true (violated nk "I6")

let test_link_outside_memory () =
  let m, nk = Helpers.booted_nk () in
  Page_table.set_entry m.Machine.mem ~ptp:nk.State.root_pml4 ~index:5
    (Pte.make ~frame:beyond_memory Pte.kernel_rw);
  Alcotest.(check bool) "I4 flagged" true (violated nk "I4")

let test_leaf_outside_memory () =
  let m, nk = Helpers.booted_nk () in
  let root = nk.State.root_pml4 in
  (match
     Page_table.walk m.Machine.mem ~root
       (Addr.kva_of_frame (Api.outer_first_frame nk))
   with
  | Page_table.Mapped w ->
      Page_table.set_entry m.Machine.mem ~ptp:w.Page_table.leaf_ptp
        ~index:w.Page_table.leaf_index
        (Pte.make ~frame:beyond_memory Pte.kernel_rw_nx)
  | Page_table.Not_mapped _ -> Alcotest.fail "dmap leaf missing");
  Alcotest.(check bool) "RMAP flagged" true (violated nk "RMAP")

let test_detects_smm_theft () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.smm_owner <- Machine.Smm_unprotected;
  Alcotest.(check bool) "I10 flagged" true (violated nk "I10")

let test_smm_restore_clears_i10 () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.smm_owner <- Machine.Smm_unprotected;
  Alcotest.(check bool) "I10 flagged" true (violated nk "I10");
  (* The audit judges current state, not history: re-securing SMM must
     clear the complaint (and only that complaint). *)
  m.Machine.smm_owner <- Machine.Smm_nested_kernel;
  Alcotest.(check bool) "I10 clear after restore" false (violated nk "I10");
  Alcotest.(check int) "audit clean again" 0 (List.length (Api.audit nk))

let test_detects_idt_redirect () =
  let m, nk = Helpers.booted_nk () in
  m.Machine.idtr <- Some (Addr.kva_of_frame (Api.outer_first_frame nk));
  Alcotest.(check bool) "I12 flagged" true (violated nk "I12")

let test_detects_idt_vector_patch () =
  let m, nk = Helpers.booted_nk () in
  (* Patch a vector in place (raw write below the MMU). *)
  (match m.Machine.idtr with
  | Some va ->
      let pa = va - Addr.kernbase in
      Phys_mem.write_u64 m.Machine.mem (pa + (14 * 8)) 0xbad
  | None -> Alcotest.fail "no idt");
  Alcotest.(check bool) "I12 flagged" true (violated nk "I12")

let test_detects_idt_missing () =
  let m, nk = Helpers.booted_nk () in
  (* The None branch: an attacker (or a buggy outer kernel) tears the
     IDTR down entirely rather than redirecting it. *)
  m.Machine.idtr <- None;
  Alcotest.(check bool) "I12 flagged with no IDT" true (violated nk "I12")

let test_detects_idt_unreadable () =
  let m, nk = Helpers.booted_nk () in
  (* The Error branch of the vector sweep: IDTR still names the
     nested kernel's IDT, but the mapping under it is gone, so every
     kread of a vector fails.  Blank the leaf below the vMMU — raw
     table surgery, exactly what the audit exists to catch. *)
  (match m.Machine.idtr with
  | Some va -> (
      match
        Page_table.walk m.Machine.mem ~root:(Cr.root_frame m.Machine.cr) va
      with
      | Page_table.Mapped w ->
          Page_table.set_entry m.Machine.mem ~ptp:w.Page_table.leaf_ptp
            ~index:w.Page_table.leaf_index Pte.empty
      | Page_table.Not_mapped _ -> Alcotest.fail "idt leaf missing")
  | None -> Alcotest.fail "no idt");
  Alcotest.(check bool) "I12 flagged when IDT unreadable" true
    (violated nk "I12")

let test_detects_iommu_disabled () =
  let m, nk = Helpers.booted_nk () in
  Iommu.set_enabled m.Machine.iommu false;
  Alcotest.(check bool) "DMA flagged" true (violated nk "DMA")

let test_detects_iommu_gap () =
  let m, nk = Helpers.booted_nk () in
  Iommu.unprotect_frame m.Machine.iommu nk.State.root_pml4;
  Alcotest.(check bool) "DMA coverage gap flagged" true (violated nk "DMA")

let test_clean_after_heavy_use () =
  let _, nk = Helpers.booted_nk () in
  let f0 = Api.outer_first_frame nk in
  Helpers.check_ok "declare" (Api.declare_ptp nk ~level:1 f0);
  for i = 0 to 63 do
    Helpers.check_ok "map"
      (Api.write_pte nk ~ptp:f0 ~index:i
         (Pte.make ~frame:(f0 + 1 + i) Pte.user_rw_nx))
  done;
  for i = 0 to 63 do
    Helpers.check_ok "unmap" (Api.write_pte nk ~ptp:f0 ~index:i Pte.empty)
  done;
  Helpers.check_ok "remove" (Api.remove_ptp nk f0);
  Alcotest.(check int) "no violations after churn" 0
    (List.length (Api.audit nk))

let suite =
  [
    Alcotest.test_case "fresh boot audits clean" `Quick test_fresh_boot_clean;
    Alcotest.test_case "detects WP cleared (I8)" `Quick test_detects_wp_clear;
    Alcotest.test_case "detects paging off (I7)" `Quick test_detects_paging_off;
    Alcotest.test_case "WP-off legal inside NK" `Quick
      test_wp_clear_tolerated_inside_nk;
    Alcotest.test_case "detects SMEP/NX cleared" `Quick test_detects_smep_nx_clear;
    Alcotest.test_case "detects rogue CR3 (I6)" `Quick test_detects_rogue_cr3;
    Alcotest.test_case "detects writable PTP mapping (I5)" `Quick
      test_detects_writable_ptp_mapping;
    Alcotest.test_case "detects undeclared link (I4)" `Quick
      test_detects_undeclared_table_link;
    Alcotest.test_case "CR3 outside memory reported (I6)" `Quick
      test_cr3_outside_memory;
    Alcotest.test_case "link outside memory reported (I4)" `Quick
      test_link_outside_memory;
    Alcotest.test_case "leaf outside memory reported (RMAP)" `Quick
      test_leaf_outside_memory;
    Alcotest.test_case "detects SMM theft (I10)" `Quick test_detects_smm_theft;
    Alcotest.test_case "SMM restore clears I10" `Quick
      test_smm_restore_clears_i10;
    Alcotest.test_case "detects IDTR redirect (I12)" `Quick
      test_detects_idt_redirect;
    Alcotest.test_case "detects IDT vector patch (I12)" `Quick
      test_detects_idt_vector_patch;
    Alcotest.test_case "detects missing IDT (I12)" `Quick
      test_detects_idt_missing;
    Alcotest.test_case "detects unreadable IDT (I12)" `Quick
      test_detects_idt_unreadable;
    Alcotest.test_case "detects IOMMU disabled" `Quick test_detects_iommu_disabled;
    Alcotest.test_case "detects IOMMU coverage gap" `Quick test_detects_iommu_gap;
    Alcotest.test_case "clean after vMMU churn" `Quick test_clean_after_heavy_use;
  ]
