open Nkhw
open Nested_kernel

let test_boot_state () =
  let m, nk = Helpers.booted_nk () in
  Alcotest.(check bool) "long-mode paging on" true (Cr.long_mode_paging m.Machine.cr);
  Alcotest.(check bool) "WP armed (I7)" true (Cr.wp_enabled m.Machine.cr);
  Alcotest.(check bool) "SMEP" true (Cr.smep_enabled m.Machine.cr);
  Alcotest.(check bool) "NX" true (Cr.nx_enabled m.Machine.cr);
  Alcotest.(check bool) "IOMMU on" true (Iommu.enabled m.Machine.iommu);
  Alcotest.(check bool) "SMM owned" true
    (m.Machine.smm_owner = Machine.Smm_nested_kernel);
  Alcotest.(check int) "CR3 is the boot PML4" nk.State.root_pml4
    (Cr.root_frame m.Machine.cr)

let test_direct_map_complete () =
  let m, nk = Helpers.booted_nk () in
  let missing = ref 0 in
  for f = 0 to Phys_mem.num_frames m.Machine.mem - 1 do
    match
      Page_table.translate m.Machine.mem ~root:nk.State.root_pml4
        (Addr.kva_of_frame f)
    with
    | Some pa when pa = Addr.pa_of_frame f -> ()
    | Some _ | None -> incr missing
  done;
  Alcotest.(check int) "every frame mapped at its kva" 0 !missing

let test_page_types_protected () =
  let m, nk = Helpers.booted_nk () in
  (* Every nested-kernel-owned or PTP frame must be unwritable through
     the direct map while WP is on. *)
  let bad = ref 0 in
  Pgdesc.iter nk.State.descs (fun f ->
      let protected_ =
        match Pgdesc.page_type nk.State.descs f with
        | Pgdesc.Ptp _ | Pgdesc.Nk_code | Pgdesc.Nk_data | Pgdesc.Nk_stack
        | Pgdesc.Protected_data ->
            true
        | _ -> false
      in
      if protected_ then
        match Machine.kwrite_u64 m (Addr.kva_of_frame f) 0 with
        | Ok () -> incr bad
        | Error _ -> ());
  Alcotest.(check int) "no protected frame writable" 0 !bad

let test_outer_memory_writable () =
  let m, nk = Helpers.booted_nk () in
  let f = Api.outer_first_frame nk + 11 in
  Helpers.check_ok "outer pool frame writable"
    (Machine.kwrite_u64 m (Addr.kva_of_frame f) 42)

let test_gate_code_executable_not_writable () =
  let m, nk = Helpers.booted_nk () in
  let g = nk.State.gate in
  Helpers.expect_fault "gate code immutable"
    (Machine.kwrite_u64 m g.Gate.entry_va 0);
  (* Executable: an interpreted crossing works. *)
  Helpers.check_ok "nk_null runs" (Api.nk_null nk)

let test_idt_covers_all_vectors () =
  let m, nk = Helpers.booted_nk () in
  let ok = ref true in
  for v = 0 to 255 do
    match Machine.read_idt_entry m v with
    | Ok h when h = nk.State.gate.Gate.trap_va -> ()
    | _ -> ok := false
  done;
  Alcotest.(check bool) "all vectors -> trap gate" true !ok

let test_boot_too_small () =
  let m = Machine.create ~frames:64 () in
  match Api.boot m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "boot should fail on a tiny machine"

let test_custom_layout () =
  let m = Machine.create ~frames:4096 () in
  let layout =
    {
      Init.gate_frames = 2;
      stack_frames = 2;
      idt_frames = 1;
      heap_frames = 16;
      ptp_pool_frames = 24;
    }
  in
  match Api.boot ~layout m with
  | Error e -> Alcotest.fail e
  | Ok nk ->
      Alcotest.(check int) "outer pool after small layout" 46
        (Api.outer_first_frame nk);
      Alcotest.(check bool) "audits clean" true (Api.audit_ok nk)

let test_small_heap_exhausts () =
  let m = Machine.create ~frames:4096 () in
  let layout =
    {
      Init.gate_frames = 2;
      stack_frames = 2;
      idt_frames = 1;
      heap_frames = 2;
      ptp_pool_frames = 24;
    }
  in
  let nk = Result.get_ok (Api.boot ~layout m) in
  match Api.nk_alloc nk ~size:(3 * Addr.page_size) Policy.unrestricted with
  | Error Nk_error.Out_of_protected_memory -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected exhaustion"

(* Boot's reverse maps, as boot used to register them: a walk of the
   finished translation tree, one entry at a time in the walk's order. *)
let register_tree descs mem ~root =
  Page_table.iter_tree mem ~root (fun ~ptp ~index ~level pte ->
      let leaf = level = 1 || (level = 2 && Pte.is_large pte) in
      let kind = if leaf then Pgdesc.Data_map else Pgdesc.Table_link in
      Pgdesc.add_mapping descs (Pte.frame pte) { Pgdesc.ptp; index; kind })

let test_boot_reverse_maps frames () =
  let m, nk = Helpers.booted_nk ~frames () in
  let mem = m.Machine.mem and descs = nk.State.descs in
  let walked = Pgdesc.create ~frames in
  register_tree walked mem ~root:nk.State.root_pml4;
  let pp_mapping ppf (mp : Pgdesc.mapping) =
    Format.fprintf ppf "%d[%d]%s" mp.Pgdesc.ptp mp.Pgdesc.index
      (match mp.Pgdesc.kind with Pgdesc.Data_map -> "d" | Pgdesc.Table_link -> "t")
  in
  let mapping = Alcotest.testable pp_mapping ( = ) in
  let multi = ref 0 in
  Pgdesc.iter descs (fun f ->
      if Pgdesc.reference_count descs f > 1 then incr multi;
      Alcotest.(check (list mapping))
        (Printf.sprintf "frame %d: reverse map, newest first" f)
        (Pgdesc.mappings walked f) (Pgdesc.mappings descs f));
  (* Every PTP is both linked and direct-mapped, in either order. *)
  Alcotest.(check bool) "frames with two mappings checked" true (!multi > 1);
  (* The direct-map leaf of every frame is its row of the protection
     table, [Unused] frames included (the row the map was built with). *)
  let built = { Pte.kernel_rw_nx with Pte.global = true } in
  for f = 0 to frames - 1 do
    match Page_table.walk mem ~root:nk.State.root_pml4 (Addr.kva_of_frame f) with
    | Page_table.Not_mapped _ -> Alcotest.failf "frame %d not direct-mapped" f
    | Page_table.Mapped w ->
        let leaf =
          Page_table.get_entry mem ~ptp:w.Page_table.leaf_ptp
            ~index:w.Page_table.leaf_index
        in
        let row =
          Pgdesc.with_rights (Pgdesc.page_type descs f)
            ~validated:(Pgdesc.is_validated descs f)
            (Pte.make ~frame:f built)
        in
        if leaf <> row then
          Alcotest.failf "frame %d (%a): leaf %#x, row %#x" f Pgdesc.pp_page_type
            (Pgdesc.page_type descs f) leaf row
  done

let suite =
  [
    Alcotest.test_case "boot state (I3/I7)" `Quick test_boot_state;
    Alcotest.test_case "direct map complete" `Quick test_direct_map_complete;
    Alcotest.test_case "protected frames unwritable" `Quick
      test_page_types_protected;
    Alcotest.test_case "outer memory writable" `Quick test_outer_memory_writable;
    Alcotest.test_case "gate code RX" `Quick test_gate_code_executable_not_writable;
    Alcotest.test_case "IDT covers all vectors (I12)" `Quick
      test_idt_covers_all_vectors;
    Alcotest.test_case "boot fails on tiny machine" `Quick test_boot_too_small;
    Alcotest.test_case "custom layout" `Quick test_custom_layout;
    Alcotest.test_case "small heap exhausts" `Quick test_small_heap_exhausts;
    Alcotest.test_case "reverse maps = a walk of the boot tree" `Quick
      (test_boot_reverse_maps 2048);
    Alcotest.test_case "checker universe reverse maps" `Quick
      (test_boot_reverse_maps 544);
  ]
