open Nkhw

type violation = { invariant : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" v.invariant v.detail

let audit (st : State.t) =
  let m = st.State.machine in
  let mem = m.Machine.mem in
  let descs = st.State.descs in
  let out = ref [] in
  let fail invariant fmt =
    Format.kasprintf (fun detail -> out := { invariant; detail } :: !out) fmt
  in
  (* I7/I8: protections armed while the outer kernel executes. *)
  if not m.Machine.in_nested_kernel then begin
    if not (Cr.wp_enabled m.Machine.cr) then
      fail "I8" "CR0.WP clear during outer-kernel execution";
    if not (Cr.paging_enabled m.Machine.cr) then
      fail "I7" "paging (PE/PG) disabled during outer-kernel execution"
  end;
  if not (Cr.smep_enabled m.Machine.cr) then fail "CI" "CR4.SMEP clear";
  if not (Cr.nx_enabled m.Machine.cr) then fail "CI" "EFER.NX clear";
  if m.Machine.cr.Cr.efer land Cr.efer_lme = 0 then fail "CI" "EFER.LME clear";
  (* A raw store can name a frame past the end of memory, in CR3 or in
     an entry; the descriptors cover exactly the frames that exist. *)
  let exists f = f < Pgdesc.frames descs in
  let ptp_level f = if exists f then Pgdesc.ptp_level descs f else None in
  (* I6: CR3 must point at a declared PML4. *)
  let root = Cr.root_frame m.Machine.cr in
  (match ptp_level root with
  | Some 4 -> ()
  | Some l -> fail "I6" "CR3 -> frame %d declared at level %d, not PML4" root l
  | None -> fail "I6" "CR3 -> frame %d is not a declared PTP" root);
  (* Walk the active tree: I1/I5, I4, code integrity, reverse maps. *)
  Page_table.iter_tree mem ~root (fun ~ptp ~index ~level pte ->
      let target = Pte.frame pte in
      let leaf = level = 1 || (level = 2 && Pte.is_large pte) in
      if leaf then begin
        let span =
          if level = 2 && Pte.is_large pte then Addr.entries_per_table else 1
        in
        for covered = target to target + span - 1 do
          if
            exists covered
            && Pgdesc.is_write_protected_type descs covered
            && Pte.is_writable pte
          then
            fail "I5" "writable mapping of protected frame %d (%a) at %d[%d]"
              covered Pgdesc.pp_page_type
              (Pgdesc.page_type descs covered)
              ptp index
        done;
        if exists target then begin
          match Pgdesc.page_type descs target with
          | Pgdesc.Outer_code when not (Pgdesc.is_validated descs target) ->
              if not (Pte.is_nx pte) then
                fail "CI" "executable mapping of unvalidated code frame %d"
                  target
          | Pgdesc.Outer_data | Pgdesc.Unused ->
              if (not (Pte.is_nx pte)) && not (Pte.is_user pte) then
                fail "CI" "executable supervisor mapping of data frame %d" target
          | _ -> ()
        end;
        if Pte.is_writable pte && not (Pte.is_nx pte) then
          if not (Pte.is_user pte) then
            fail "CI" "writable+executable supervisor mapping of frame %d" target
      end
      else begin
        match ptp_level target with
        | Some l when l = level - 1 -> ()
        | Some l ->
            fail "I4" "table link %d[%d] -> frame %d has level %d, expected %d"
              ptp index target l (level - 1)
        | None ->
            fail "I4" "table link %d[%d] -> frame %d is not a declared PTP" ptp
              index target
      end;
      (* Reverse-map consistency. *)
      let kind = if leaf then Pgdesc.Data_map else Pgdesc.Table_link in
      if
        not
          (exists target
          && Pgdesc.has_mapping descs target { Pgdesc.ptp; index; kind })
      then
        fail "RMAP" "entry %d[%d] -> frame %d missing from reverse map" ptp
          index target);
  (* I14: no PTE installed under one tenant domain reaches a frame
     owned by another.  Walk every tenant-owned PTP's live entries; a
     leaf frame or linked child owned by a different live tenant is a
     breach of the ownership lattice (host-owned frames are shared). *)
  Pgdesc.iter descs (fun ptp ->
      let owner = Pgdesc.owner descs ptp in
      match Pgdesc.page_type descs ptp with
      | Pgdesc.Unused when owner <> 0 ->
          (* Ownership is a claim on a live resource; a free frame
             still carrying a tenant's mark poisons its next use (the
             recycled frame is denied to everyone else) and inflates
             that tenant's teardown leak count. *)
          fail "I14" "free frame %d still carries domain %d's owner mark" ptp
            owner
      | Pgdesc.Ptp level when owner <> 0 ->
          for index = 0 to Addr.entries_per_table - 1 do
            let pte = Page_table.get_entry mem ~ptp ~index in
            if Pte.is_present pte then begin
              let leaf = level = 1 || (level = 2 && Pte.is_large pte) in
              let span =
                if level = 2 && Pte.is_large pte then Addr.entries_per_table
                else 1
              in
              let check covered =
                if exists covered then
                  let fo = Pgdesc.owner descs covered in
                  if fo <> 0 && fo <> owner then
                    fail "I14"
                      "domain %d's PTP %d[%d] reaches frame %d owned by \
                       domain %d"
                      owner ptp index covered fo
              in
              if leaf then
                for covered = Pte.frame pte to Pte.frame pte + span - 1 do
                  check covered
                done
              else begin
                (* Skip kernel-half links of a root: shared by design. *)
                let kernel_half =
                  level = 4 && index >= Addr.entries_per_table / 2
                in
                if not kernel_half then check (Pte.frame pte)
              end
            end
          done
      | _ -> ());
  (* I10: SMM ownership. *)
  (match m.Machine.smm_owner with
  | Machine.Smm_nested_kernel -> ()
  | Machine.Smm_unprotected -> fail "I10" "SMM handler not nested-kernel owned");
  (* I12: IDTR targets the nested kernel's IDT; vectors hit the trap gate. *)
  (match m.Machine.idtr with
  | Some va when va = st.State.idt_va ->
      let ok = ref true in
      for vector = 0 to 255 do
        match Machine.kread_u64 m (va + (vector * 8)) with
        | Ok h when h = st.State.gate.Gate.trap_va -> ()
        | Ok _ | Error _ -> ok := false
      done;
      if not !ok then fail "I12" "IDT vector not routed through the trap gate"
  | Some va -> fail "I12" "IDTR points at %#x, not the nested-kernel IDT" va
  | None -> fail "I12" "no IDT loaded");
  (* I12/I13 page protection of IDT and NK stack via the tree walk is
     covered by I5 (their frames are NK-typed).  Check types here. *)
  (* IOMMU coverage. *)
  if not (Iommu.enabled m.Machine.iommu) then fail "DMA" "IOMMU disabled"
  else
    Pgdesc.iter descs (fun f ->
        match Pgdesc.page_type descs f with
        | Pgdesc.Ptp _ | Pgdesc.Nk_code | Pgdesc.Nk_data | Pgdesc.Nk_stack
        | Pgdesc.Protected_data ->
            if not (Iommu.is_protected m.Machine.iommu f) then
              fail "DMA" "protected frame %d not shielded by the IOMMU" f
        | Pgdesc.Outer_code ->
            if
              Pgdesc.is_validated descs f
              && not (Iommu.is_protected m.Machine.iommu f)
            then fail "DMA" "validated code frame %d not shielded" f
        | Pgdesc.Unused | Pgdesc.Outer_data | Pgdesc.User -> ());
  List.rev !out

let audit_ok st = audit st = []
