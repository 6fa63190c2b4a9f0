open Nkhw

(* Build a small tree by hand with a bump allocator over the frames. *)
let setup () =
  let mem = Phys_mem.create ~frames:64 in
  let next = ref 1 in
  let alloc_ptp () =
    let f = !next in
    incr next;
    f
  in
  let root = alloc_ptp () in
  (mem, root, alloc_ptp)

let test_walk_unmapped () =
  let mem, root, _ = setup () in
  match Page_table.walk mem ~root 0x1234000 with
  | Page_table.Not_mapped { level } -> Alcotest.(check int) "fails at root" 4 level
  | Page_table.Mapped _ -> Alcotest.fail "unexpected mapping"

let test_map_and_walk () =
  let mem, root, alloc_ptp = setup () in
  let va = Addr.make_va ~pml4:5 ~pdpt:4 ~pd:3 ~pt:2 ~offset:0 in
  Pt_builder.map_page mem ~root ~alloc_ptp va (Pte.make ~frame:42 Pte.user_rw_nx);
  match Page_table.walk mem ~root (va + 123) with
  | Page_table.Mapped w ->
      Alcotest.(check int) "frame" 42 w.Page_table.frame;
      Alcotest.(check bool) "writable" true w.Page_table.writable;
      Alcotest.(check bool) "user" true w.Page_table.user;
      Alcotest.(check bool) "nx" true w.Page_table.nx;
      Alcotest.(check int) "leaf level" 1 w.Page_table.level
  | Page_table.Not_mapped _ -> Alcotest.fail "expected mapping"

let test_effective_permissions () =
  (* A read-only leaf under writable intermediates is effectively RO. *)
  let mem, root, alloc_ptp = setup () in
  let va = 0x200000 in
  Pt_builder.map_page mem ~root ~alloc_ptp va (Pte.make ~frame:9 Pte.user_ro_nx);
  (match Page_table.walk mem ~root va with
  | Page_table.Mapped w ->
      Alcotest.(check bool) "not writable" false w.Page_table.writable
  | Page_table.Not_mapped _ -> Alcotest.fail "mapped");
  (* Supervisor-only leaf under user intermediates is supervisor. *)
  Pt_builder.map_page mem ~root ~alloc_ptp (va + 4096)
    (Pte.make ~frame:10 Pte.kernel_rw);
  match Page_table.walk mem ~root (va + 4096) with
  | Page_table.Mapped w -> Alcotest.(check bool) "not user" false w.Page_table.user
  | Page_table.Not_mapped _ -> Alcotest.fail "mapped"

let test_translate () =
  let mem, root, alloc_ptp = setup () in
  Pt_builder.map_page mem ~root ~alloc_ptp 0x5000 (Pte.make ~frame:7 Pte.user_rw_nx);
  Alcotest.(check (option int)) "translate" (Some (0x7000 + 0x21))
    (Page_table.translate mem ~root (0x5000 + 0x21));
  Alcotest.(check (option int)) "unmapped" None
    (Page_table.translate mem ~root 0x9000)

let test_large_page () =
  let mem, root, alloc_ptp = setup () in
  (* Install a 2 MiB leaf at PD level by hand. *)
  let pdpt = alloc_ptp () and pd = alloc_ptp () in
  Page_table.set_entry mem ~ptp:root ~index:0 (Pte.make ~frame:pdpt Pte.kernel_rw);
  Page_table.set_entry mem ~ptp:pdpt ~index:0 (Pte.make ~frame:pd Pte.kernel_rw);
  Page_table.set_entry mem ~ptp:pd ~index:0
    (Pte.make ~frame:32 { Pte.kernel_rw with large = true });
  match Page_table.walk mem ~root (3 * 4096) with
  | Page_table.Mapped w ->
      Alcotest.(check int) "level 2 leaf" 2 w.Page_table.level;
      Alcotest.(check int) "base frame" 32 w.Page_table.frame
  | Page_table.Not_mapped _ -> Alcotest.fail "large page not found"

let test_entry_pa_bounds () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "Page_table.entry_pa: index out of range") (fun () ->
      ignore (Page_table.entry_pa ~ptp:0 ~index:512))

let test_iter_tree () =
  let mem, root, alloc_ptp = setup () in
  Pt_builder.map_page mem ~root ~alloc_ptp 0x5000 (Pte.make ~frame:7 Pte.user_rw_nx);
  Pt_builder.map_page mem ~root ~alloc_ptp 0x6000 (Pte.make ~frame:8 Pte.user_rw_nx);
  let leaves = ref 0 and links = ref 0 in
  Page_table.iter_tree mem ~root (fun ~ptp:_ ~index:_ ~level pte ->
      if level = 1 || (level = 2 && Pte.is_large pte) then incr leaves
      else incr links);
  Alcotest.(check int) "leaves" 2 !leaves;
  Alcotest.(check int) "links (pdpt, pd, pt)" 3 !links

let test_tables_outside_memory () =
  let mem, root, _ = setup () in
  let va = Addr.make_va ~pml4:5 ~pdpt:0 ~pd:0 ~pt:0 ~offset:0 in
  Page_table.set_entry mem ~ptp:root ~index:5 (Pte.make ~frame:64 Pte.kernel_rw);
  (match Page_table.walk mem ~root va with
  | Page_table.Not_mapped { level } ->
      Alcotest.(check int) "walk stops at the missing table" 3 level
  | Page_table.Mapped _ -> Alcotest.fail "unexpected mapping");
  (match Page_table.walk mem ~root:64 va with
  | Page_table.Not_mapped { level } ->
      Alcotest.(check int) "root outside memory" 4 level
  | Page_table.Mapped _ -> Alcotest.fail "unexpected mapping");
  let seen = ref [] in
  Page_table.iter_tree mem ~root (fun ~ptp:_ ~index ~level:_ pte ->
      seen := (index, Pte.frame pte) :: !seen);
  Alcotest.(check (list (pair int int))) "link passed, not descended"
    [ (5, 64) ] !seen;
  Page_table.iter_tree mem ~root:64 (fun ~ptp:_ ~index:_ ~level:_ _ ->
      Alcotest.fail "a root outside memory has no entries")

let test_iter_user_leaves_skips_kernel () =
  let mem, root, alloc_ptp = setup () in
  Pt_builder.map_page mem ~root ~alloc_ptp 0x5000 (Pte.make ~frame:7 Pte.user_rw_nx);
  Pt_builder.map_page mem ~root ~alloc_ptp (Addr.kva_of_frame 9)
    (Pte.make ~frame:9 Pte.kernel_rw);
  let seen = ref [] in
  Page_table.iter_user_leaves mem ~root (fun ~va ~ptp:_ ~index:_ _ ->
      seen := va :: !seen);
  Alcotest.(check (list int)) "only the user leaf" [ 0x5000 ] !seen

let prop_map_then_translate =
  Helpers.qtest "map then translate agrees" ~count:100
    QCheck2.Gen.(
      pair
        (quad (int_range 0 255) (int_range 0 511) (int_range 0 511)
           (int_range 0 511))
        (int_range 1 63))
    (fun ((a, b, c, d), frame) ->
      let mem, root, alloc_ptp = setup () in
      let va = Addr.make_va ~pml4:a ~pdpt:b ~pd:c ~pt:d ~offset:0 in
      Pt_builder.map_page mem ~root ~alloc_ptp va
        (Pte.make ~frame Pte.user_rw_nx);
      Page_table.translate mem ~root va = Some (Addr.pa_of_frame frame))

(* Build the direct map of [frames] frames into a fresh memory whose
   page-table pages are bump-allocated past the mapped range, with
   [build root alloc_ptp on_new_ptp]; returns the memory, the PTPs in
   allocation order (frame, level) and the number of stores. *)
let direct_map_with ~frames build =
  let mem = Phys_mem.create ~frames:(frames + 1024) in
  let next = ref frames in
  let alloc_ptp () =
    let f = !next in
    incr next;
    f
  in
  let root = alloc_ptp () in
  Phys_mem.zero_frame mem root;
  let ptps = ref [ (root, 4) ] in
  let on_new_ptp ~level f = ptps := (f, level) :: !ptps in
  build ~root ~alloc_ptp ~on_new_ptp mem;
  (mem, root, List.rev !ptps, Phys_mem.writes mem)

let flags = { Pte.kernel_rw_nx with Pte.global = true }

let test_direct_map_matches_map_page frames () =
  let reference =
    direct_map_with ~frames (fun ~root ~alloc_ptp ~on_new_ptp mem ->
        for f = 0 to frames - 1 do
          Pt_builder.map_page mem ~root ~alloc_ptp ~on_new_ptp
            (Addr.kva_of_frame f) (Pte.make ~frame:f flags)
        done)
  in
  let reported = ref [] in
  let built =
    direct_map_with ~frames (fun ~root ~alloc_ptp ~on_new_ptp mem ->
        Pt_builder.build_direct_map mem ~root ~alloc_ptp ~on_new_ptp
          ~on_entry:(fun ~ptp ~index ~level pte ->
            reported := (ptp, index, level, pte) :: !reported)
          ~frames flags)
  in
  let mem_r, _, ptps_r, writes_r = reference
  and mem_b, root, ptps_b, writes_b = built in
  Alcotest.(check (list (pair int int))) "same tables, same order, same levels"
    ptps_r ptps_b;
  Alcotest.(check int) "same number of stores" writes_r writes_b;
  List.iter
    (fun (ptp, _) ->
      for index = 0 to Addr.entries_per_table - 1 do
        let r = Page_table.get_entry mem_r ~ptp ~index
        and b = Page_table.get_entry mem_b ~ptp ~index in
        if r <> b then
          Alcotest.failf "table %d entry %d: map_page %#x, builder %#x" ptp index r b
      done)
    ptps_r;
  let walked = ref [] in
  Page_table.iter_tree mem_b ~root (fun ~ptp ~index ~level pte ->
      walked := (ptp, index, level, pte) :: !walked);
  Alcotest.(check int) "one report per entry" (frames + List.length ptps_b - 1)
    (List.length !reported);
  Alcotest.(check bool) "reports in tree order" true (!walked = !reported)

let suite =
  [
    Alcotest.test_case "walk unmapped" `Quick test_walk_unmapped;
    Alcotest.test_case "map and walk" `Quick test_map_and_walk;
    Alcotest.test_case "effective permissions AND" `Quick test_effective_permissions;
    Alcotest.test_case "translate" `Quick test_translate;
    Alcotest.test_case "2 MiB page" `Quick test_large_page;
    Alcotest.test_case "entry_pa bounds" `Quick test_entry_pa_bounds;
    Alcotest.test_case "iter_tree" `Quick test_iter_tree;
    Alcotest.test_case "tables outside memory" `Quick test_tables_outside_memory;
    Alcotest.test_case "iter_user_leaves skips kernel half" `Quick
      test_iter_user_leaves_skips_kernel;
    prop_map_then_translate;
  ]
  @ List.map
      (fun frames ->
        Alcotest.test_case
          (Printf.sprintf "%d-frame direct map = map_page per frame" frames)
          `Quick
          (test_direct_map_matches_map_page frames))
      [ 1; 511; 512; 513; 544; 262_145 ]
