open Nkhw
open Nested_kernel

let benign = Insn.assemble_raw Insn.[ Nop; Mov_ri (RAX, 7); Ret ]

let hostile =
  Insn.assemble_raw Insn.[ Mov_from_cr (RAX, CR0); Mov_to_cr (CR0, RAX); Ret ]

let setup () =
  let m, nk = Helpers.booted_nk () in
  let falloc =
    Frame_alloc.create ~first:(Api.outer_first_frame nk) ~count:256
  in
  (m, nk, falloc)

let test_validate () =
  Helpers.check_ok "benign validates" (Api.validate_code benign);
  match Api.validate_code hostile with
  | Error (Nk_error.Unvalidated_code { offset }) ->
      Alcotest.(check int) "offset of mov-to-cr" 3 offset
  | Ok () | Error _ -> Alcotest.fail "hostile code validated"

let test_install_and_execute () =
  let m, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  (* The installed code is executable at its direct-map address. *)
  m.Machine.cpu.Cpu_state.rip <- Addr.kva_of_frame frame;
  Cpu_state.set m.Machine.cpu Insn.RSP (Addr.kva_of_frame (frame + 100));
  Phys_mem.write_u64 m.Machine.mem (Addr.pa_of_frame (frame + 100) - 8) 0;
  (* Return address slot; executing until the Ret pops garbage is fine —
     stop at the Mov instead by fuel-bounding. *)
  ignore (Exec.run ~fuel:2 m);
  Alcotest.(check int) "ran" 7 (Cpu_state.get m.Machine.cpu Insn.RAX)

let test_install_rejects_hostile () =
  let _, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.expect_error "hostile rejected"
    (Api.install_code nk ~frames:[ frame ] hostile)

let test_installed_code_immutable () =
  let m, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  Helpers.expect_fault "patch faults"
    (Machine.kwrite_u64 m (Addr.kva_of_frame frame) 0);
  Alcotest.(check bool) "DMA shielded" true
    (Iommu.is_protected m.Machine.iommu frame)

let test_install_too_big () =
  let _, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.expect_error "more code than frames"
    (Api.install_code nk ~frames:[ frame ] (Bytes.make 5000 '\x90'))

let test_install_rejects_nk_frames () =
  let _, nk, _ = setup () in
  Helpers.expect_error "nk frame" (Api.install_code nk ~frames:[ 2 ] benign)

let test_retire () =
  let m, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  Helpers.check_ok "retire" (Api.retire_code nk ~frames:[ frame ]);
  Helpers.check_ok "writable again"
    (Machine.kwrite_u64 m (Addr.kva_of_frame frame) 0xAA);
  Alcotest.(check bool) "unshielded" false
    (Iommu.is_protected m.Machine.iommu frame)

let test_retire_while_mapped_rejected () =
  let _, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  let pt = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  Helpers.check_ok "declare pt" (Api.declare_ptp nk ~level:1 pt);
  Helpers.check_ok "map the module"
    (Api.write_pte nk ~ptp:pt ~index:0 (Pte.make ~frame Pte.user_rx));
  Helpers.expect_error "retire while mapped"
    (Api.retire_code nk ~frames:[ frame ])

let test_audit_clean_after_module_cycle () =
  let _, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  Helpers.check_ok "retire" (Api.retire_code nk ~frames:[ frame ]);
  Alcotest.(check bool) "audit" true (Api.audit_ok nk)

(* A failed direct-map store aborts install and retire alike, and the
   frame keeps the type, validated bit and shield it had. *)
let expect_hardware name = function
  | Error (Nk_error.Hardware _) -> ()
  | Ok () -> Alcotest.failf "%s must fail when the store fails" name
  | Error e -> Alcotest.failf "%s: wrong error: %s" name (Nk_error.to_string e)

let check_code m nk f expected =
  Alcotest.(check bool) "type" expected
    (Pgdesc.page_type nk.State.descs f = Pgdesc.Outer_code);
  Alcotest.(check bool) "validated" expected (Pgdesc.is_validated nk.State.descs f);
  Alcotest.(check bool) "shielded" expected (Iommu.is_protected m.Machine.iommu f)

let test_install_aborts_on_failed_store () =
  let m, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.break_dmap_leaf m nk frame;
  expect_hardware "install" (Api.install_code nk ~frames:[ frame ] benign);
  check_code m nk frame false

let test_retire_aborts_on_failed_store () =
  let m, nk, falloc = setup () in
  let frame = Frame_alloc.alloc_exn falloc in
  Helpers.check_ok "install" (Api.install_code nk ~frames:[ frame ] benign);
  Helpers.break_dmap_leaf m nk frame;
  expect_hardware "retire" (Api.retire_code nk ~frames:[ frame ]);
  check_code m nk frame true

(* Only installed code retires.  Each frame below is refused with a
   typed error before anything changes: its type, its DMA shield and
   its direct-map leaf stay as they were, and the audit stays clean.
   (The hole: the live root PML4 became writable outer data.) *)
let dmap_leaf m f =
  match
    Page_table.walk m.Machine.mem ~root:(Cr.root_frame m.Machine.cr)
      (Addr.kva_of_frame f)
  with
  | Page_table.Mapped w ->
      Page_table.get_entry m.Machine.mem ~ptp:w.Page_table.leaf_ptp
        ~index:w.Page_table.leaf_index
  | Page_table.Not_mapped _ -> Alcotest.fail "direct map must cover the frame"

let first_of_type (nk : Api.t) ty =
  let found = ref (-1) in
  Pgdesc.iter nk.State.descs (fun f ->
      if !found < 0 && Pgdesc.page_type nk.State.descs f = ty then found := f);
  !found

let test_retire_refuses name pick () =
  let m, nk, falloc = setup () in
  let f = pick nk falloc in
  let ty = Pgdesc.page_type nk.State.descs f in
  let shielded = Iommu.is_protected m.Machine.iommu f in
  let leaf = dmap_leaf m f in
  (match Api.retire_code nk ~frames:[ f ] with
  | Error (Nk_error.Not_declarable { frame; _ }) ->
      Alcotest.(check int) "error names the frame" f frame
  | Ok () -> Alcotest.failf "%s retired" name
  | Error e -> Alcotest.failf "wrong error: %s" (Nk_error.to_string e));
  Alcotest.(check bool) "type unchanged" true
    (Pgdesc.page_type nk.State.descs f = ty);
  Alcotest.(check bool) "shield unchanged" shielded
    (Iommu.is_protected m.Machine.iommu f);
  Alcotest.(check int) "direct-map leaf unchanged" leaf (dmap_leaf m f);
  Alcotest.(check bool) "audit clean" true (Api.audit_ok nk)

let retire_refused =
  let case name pick =
    Alcotest.test_case ("retire refuses " ^ name) `Quick
      (test_retire_refuses name pick)
  in
  [
    case "the root PML4" (fun nk _ -> nk.State.root_pml4);
    case "an NK stack frame" (fun nk _ -> first_of_type nk Pgdesc.Nk_stack);
    case "the entry-gate frame" (fun nk _ ->
        Addr.frame_of_pa (nk.State.gate.Gate.entry_va - Addr.kernbase));
    case "a protected-heap frame" (fun nk _ ->
        first_of_type nk Pgdesc.Protected_data);
    case "a declared leaf PTP" (fun nk falloc ->
        let pt = Frame_alloc.alloc_exn falloc in
        Helpers.check_ok "declare pt" (Api.declare_ptp nk ~level:1 pt);
        pt);
  ]

let suite =
  [
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "install and execute" `Quick test_install_and_execute;
    Alcotest.test_case "hostile module rejected" `Quick test_install_rejects_hostile;
    Alcotest.test_case "installed code immutable" `Quick
      test_installed_code_immutable;
    Alcotest.test_case "oversized code rejected" `Quick test_install_too_big;
    Alcotest.test_case "nk frames rejected" `Quick test_install_rejects_nk_frames;
    Alcotest.test_case "retire" `Quick test_retire;
    Alcotest.test_case "retire while mapped rejected" `Quick
      test_retire_while_mapped_rejected;
    Alcotest.test_case "audit clean after module cycle" `Quick
      test_audit_clean_after_module_cycle;
    Alcotest.test_case "install aborts on a failed store" `Quick
      test_install_aborts_on_failed_store;
    Alcotest.test_case "retire aborts on a failed store" `Quick
      test_retire_aborts_on_failed_store;
  ]
  @ retire_refused
