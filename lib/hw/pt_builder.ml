let intermediate_flags ~user =
  { Pte.kernel_rw with user }

let map_page mem ~root ~alloc_ptp ?(on_new_ptp = fun ~level:_ _ -> ()) va leaf =
  let user = not (Addr.is_kernel_va va) in
  let rec descend ptp level =
    let index = Addr.index_at_level ~level va in
    if level = 1 then Page_table.set_entry mem ~ptp ~index leaf
    else
      let entry = Page_table.get_entry mem ~ptp ~index in
      let next =
        if Pte.is_present entry then Pte.frame entry
        else begin
          let f = alloc_ptp () in
          Phys_mem.zero_frame mem f;
          on_new_ptp ~level:(level - 1) f;
          Page_table.set_entry mem ~ptp ~index
            (Pte.make ~frame:f (intermediate_flags ~user));
          f
        end
      in
      descend next (level - 1)
  in
  descend root 4

(* The direct map one leaf table at a time: descend once to the table
   holding the next frame's entry, creating what is missing exactly as
   [map_page] does, then fill its run of leaves.  Same words into the
   same tables in the same order as [map_page] frame by frame, without
   the per-frame descent; every entry written is reported in the order
   [Page_table.iter_tree] visits it (a table link before the table's
   entries, entries by index). *)
let build_direct_map mem ~root ~alloc_ptp ?(on_new_ptp = fun ~level:_ _ -> ())
    ?(on_entry = fun ~ptp:_ ~index:_ ~level:_ _ -> ()) ~frames flags =
  let rec leaf_table ptp level va =
    if level = 1 then ptp
    else
      let index = Addr.index_at_level ~level va in
      let entry = Page_table.get_entry mem ~ptp ~index in
      if Pte.is_present entry then leaf_table (Pte.frame entry) (level - 1) va
      else begin
        let f = alloc_ptp () in
        Phys_mem.zero_frame mem f;
        on_new_ptp ~level:(level - 1) f;
        let link = Pte.make ~frame:f (intermediate_flags ~user:false) in
        Page_table.set_entry mem ~ptp ~index link;
        on_entry ~ptp ~index ~level link;
        leaf_table f (level - 1) va
      end
  in
  let next = ref 0 in
  while !next < frames do
    let va = Addr.kva_of_frame !next in
    let pt = leaf_table root 4 va in
    let first = Addr.index_at_level ~level:1 va in
    let n = min (Addr.entries_per_table - first) (frames - !next) in
    for i = 0 to n - 1 do
      let leaf = Pte.make ~frame:(!next + i) flags in
      Page_table.set_entry mem ~ptp:pt ~index:(first + i) leaf;
      on_entry ~ptp:pt ~index:(first + i) ~level:1 leaf
    done;
    next := !next + n
  done
