open Nkhw

let ( let* ) = Result.bind

let validate code =
  match Insn.find_protected_patterns code with
  | [] -> Ok ()
  | (offset, _) :: _ -> Error (Nk_error.Unvalidated_code { offset })

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
                let rec install i = function
                  | [] -> Ok ()
                  | f :: rest ->
                      Phys_mem.zero_frame m.Machine.mem f;
                      let off = i * Addr.page_size in
                      let len = min Addr.page_size (Bytes.length code - off) in
                      if len > 0 then
                        Phys_mem.blit_from_bytes code off m.Machine.mem
                          (Addr.pa_of_frame f) len;
                      Machine.charge m m.Machine.costs.Costs.page_copy;
                      let* () =
                        State.retype st f ~validated:true Pgdesc.Outer_code
                      in
                      install (i + 1) rest
                in
                let* () = install 0 frames in
                Machine.count_ev m Nktrace.Install_code;
                Ok ())

let retire_code st ~frames =
  State.with_gate st (fun () ->
      let installed f =
        Pgdesc.page_type st.descs f = Pgdesc.Outer_code
        && Pgdesc.is_validated st.descs f
      in
      let still_mapped f =
        List.length (Pgdesc.data_maps st.descs f) > 1
        || Pgdesc.table_links st.descs f <> []
      in
      match
        ( List.find_opt (fun f -> not (installed f)) frames,
          List.find_opt still_mapped frames )
      with
      | Some f, _ ->
          Error (Nk_error.Not_declarable { frame = f; why = "not installed code" })
      | None, Some f ->
          Error
            (Nk_error.Ptp_in_use
               { frame = f; references = Pgdesc.reference_count st.descs f })
      | None, None ->
          let* () =
            State.iter_ok (fun f -> State.retype st f Pgdesc.Outer_data) frames
          in
          Machine.count_ev st.machine Nktrace.Retire_code;
          Ok ())
