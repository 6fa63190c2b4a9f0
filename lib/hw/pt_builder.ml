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

let map_range mem ~root ~alloc_ptp ?on_new_ptp ~va ~first_frame ~count flags =
  for i = 0 to count - 1 do
    map_page mem ~root ~alloc_ptp ?on_new_ptp
      (va + (i * Addr.page_size))
      (Pte.make ~frame:(first_frame + i) flags)
  done

let build_direct_map mem ~root ~alloc_ptp ?on_new_ptp ~frames flags =
  map_range mem ~root ~alloc_ptp ?on_new_ptp ~va:Addr.kernbase ~first_frame:0
    ~count:frames flags
