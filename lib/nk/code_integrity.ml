open Nkhw

let validate code =
  match Insn.find_protected_patterns code with
  | [] -> Ok ()
  | (offset, _) :: _ -> Error (Nk_error.Unvalidated_code { offset })

let set_dmap_flags (st : State.t) frame ~writable ~nx =
  let m = st.machine in
  List.iter
    (fun (mp : Pgdesc.mapping) ->
      match mp.kind with
      | Pgdesc.Table_link -> ()
      | Pgdesc.Data_map ->
          let e = Page_table.get_entry m.Machine.mem ~ptp:mp.ptp ~index:mp.index in
          let e' = Pte.set_nx (Pte.set_writable e writable) nx in
          ignore
            (Machine.kwrite_u64 m
               (State.entry_va_of_pte ~ptp:mp.ptp ~index:mp.index)
               e'))
    (Pgdesc.mappings st.descs frame);
  Machine.shootdown_page m ~vpage:(Addr.vpage (Addr.kva_of_frame frame))

let install_code st ~frames code =
  match validate code with
  | Error e -> Error e
  | Ok () ->
      if Bytes.length code > List.length frames * Addr.page_size then
        Error
          (Nk_error.Not_declarable
             { frame = -1; why = "code larger than provided frames" })
      else
        State.with_gate st (fun () ->
            let m = st.machine in
            let bad =
              List.find_opt
                (fun f ->
                  State.is_nk_frame st f
                  ||
                  match Pgdesc.page_type st.descs f with
                  | Pgdesc.Unused | Pgdesc.Outer_data -> false
                  | _ -> true)
                frames
            in
            match bad with
            | Some f ->
                Error
                  (Nk_error.Not_declarable
                     { frame = f; why = "not plain outer-kernel memory" })
            | None ->
                List.iteri
                  (fun i f ->
                    Phys_mem.zero_frame m.Machine.mem f;
                    let off = i * Addr.page_size in
                    let len = min Addr.page_size (Bytes.length code - off) in
                    if len > 0 then
                      Phys_mem.blit_from_bytes code off m.Machine.mem
                        (Addr.pa_of_frame f) len;
                    Machine.charge m m.Machine.costs.Costs.page_copy;
                    Pgdesc.set_type st.descs f Pgdesc.Outer_code;
                    Pgdesc.set_validated st.descs f true;
                    Iommu.protect_frame m.Machine.iommu f;
                    (* Direct-map mapping: read-only and executable. *)
                    set_dmap_flags st f ~writable:false ~nx:false)
                  frames;
                Machine.count_ev m Nktrace.Install_code;
                Ok ())

let retire_code st ~frames =
  State.with_gate st (fun () ->
      let m = st.machine in
      let still_mapped f =
        List.length (Pgdesc.data_maps st.descs f) > 1
        || Pgdesc.table_links st.descs f <> []
      in
      match List.find_opt still_mapped frames with
      | Some f ->
          Error
            (Nk_error.Ptp_in_use
               { frame = f; references = Pgdesc.reference_count st.descs f })
      | None ->
          List.iter
            (fun f ->
              Pgdesc.set_type st.descs f Pgdesc.Outer_data;
              Pgdesc.set_validated st.descs f false;
              Iommu.unprotect_frame m.Machine.iommu f;
              set_dmap_flags st f ~writable:true ~nx:true)
            frames;
          Machine.count_ev m Nktrace.Retire_code;
          Ok ())
