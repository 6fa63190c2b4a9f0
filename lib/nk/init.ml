open Nkhw

type boot_layout = {
  gate_frames : int;
  stack_frames : int;
  idt_frames : int;
  heap_frames : int;
  ptp_pool_frames : int;
}

let default_layout ~total_frames =
  {
    gate_frames = 2;
    stack_frames = 2;
    idt_frames = 1;
    heap_frames = 256;
    ptp_pool_frames = (total_frames / Addr.entries_per_table) + 8;
  }

let boot ?layout (m : Machine.t) =
  let total = Phys_mem.num_frames m.Machine.mem in
  let l =
    match layout with Some l -> l | None -> default_layout ~total_frames:total
  in
  let nk_first = 1 in
  let gate_first = nk_first in
  let stack_first = gate_first + l.gate_frames in
  let idt_first = stack_first + l.stack_frames in
  let heap_first = idt_first + l.idt_frames in
  let ptp_first = heap_first + l.heap_frames in
  let nk_count =
    l.gate_frames + l.stack_frames + l.idt_frames + l.heap_frames
    + l.ptp_pool_frames
  in
  if nk_first + nk_count >= total then Error "boot: machine too small"
  else begin
    let descs = Pgdesc.create ~frames:total in
    let ptp_pool =
      Frame_alloc.create ~first:ptp_first ~count:l.ptp_pool_frames
    in
    let ptps = ref [] in
    let alloc_ptp () = Frame_alloc.alloc_exn ptp_pool in
    let on_new_ptp ~level f = ptps := (f, level) :: !ptps in
    (* Root PML4 comes from the same pool. *)
    let root = alloc_ptp () in
    Phys_mem.zero_frame m.Machine.mem root;
    ptps := [ (root, 4) ];
    (* Reverse maps are registered as the builder writes each entry,
       so they start consistent with the hardware state. *)
    let on_entry ~ptp ~index ~level pte =
      let kind = if level = 1 then Pgdesc.Data_map else Pgdesc.Table_link in
      Pgdesc.add_mapping descs (Pte.frame pte) { Pgdesc.ptp; index; kind }
    in
    (* Direct-map leaves are global: the kernel half is identical in
       every address space, so its translations survive CR3 reloads.
       They are built with the [Unused] row of the protection table
       (writable, NX). *)
    Pt_builder.build_direct_map m.Machine.mem ~root ~alloc_ptp ~on_new_ptp
      ~on_entry ~frames:total
      { Pte.kernel_rw_nx with Pte.global = true };
    (* Assign page types. *)
    Pgdesc.set_type descs 0 Pgdesc.Nk_data;
    for f = gate_first to gate_first + l.gate_frames - 1 do
      Pgdesc.set_type descs f Pgdesc.Nk_code
    done;
    for f = stack_first to stack_first + l.stack_frames - 1 do
      Pgdesc.set_type descs f Pgdesc.Nk_stack
    done;
    for f = idt_first to idt_first + l.idt_frames - 1 do
      Pgdesc.set_type descs f Pgdesc.Nk_data
    done;
    for f = heap_first to heap_first + l.heap_frames - 1 do
      Pgdesc.set_type descs f Pgdesc.Protected_data
    done;
    List.iter (fun (f, level) -> Pgdesc.set_type descs f (Pgdesc.Ptp level)) !ptps;
    (* Unallocated pool PTP frames stay usable as NK spares: mark them
       nested-kernel data so the outer kernel can never claim them. *)
    for f = ptp_first to ptp_first + l.ptp_pool_frames - 1 do
      if Frame_alloc.is_free ptp_pool f then Pgdesc.set_type descs f Pgdesc.Nk_data
    done;
    (* Protection pass: each nested-kernel frame gets its row of the
       protection table — direct-map leaf rights (raw stores; the leaf
       stays global) and the IOMMU shield from DMA (section 2.5).
       Every frame from [nk_first + nk_count] on is [Unused], whose
       row is the one the direct map was built with. *)
    Iommu.set_enabled m.Machine.iommu true;
    for f = 0 to nk_first + nk_count - 1 do
      let ty = Pgdesc.page_type descs f and validated = Pgdesc.is_validated descs f in
      List.iter
        (fun (mp : Pgdesc.mapping) ->
          let e = Page_table.get_entry m.Machine.mem ~ptp:mp.ptp ~index:mp.index in
          Page_table.set_entry m.Machine.mem ~ptp:mp.ptp ~index:mp.index
            (Pgdesc.with_rights ty ~validated e))
        (Pgdesc.data_maps descs f);
      if Pgdesc.shielded ty ~validated then Iommu.protect_frame m.Machine.iommu f
    done;
    (* Install gate code and the secure stack. *)
    let gate =
      Gate.install m.Machine.mem
        ~code_base_pa:(Addr.pa_of_frame gate_first)
        ~code_base_va:(Addr.kva_of_frame gate_first)
        ~secure_stack_top:(Addr.kva_of_frame (stack_first + l.stack_frames))
    in
    (* IDT: every vector lands on the nested-kernel trap gate (I11/I12). *)
    let idt_pa = Addr.pa_of_frame idt_first in
    for vector = 0 to 255 do
      Phys_mem.write_u64 m.Machine.mem (idt_pa + (vector * 8)) gate.Gate.trap_va
    done;
    let idt_va = Addr.kva_of_frame idt_first in
    m.Machine.idtr <- Some idt_va;
    (* SMM is nested-kernel property from here on (I10). *)
    m.Machine.smm_owner <- Machine.Smm_nested_kernel;
    (* Turn on long-mode paging with protections armed (I3, I7). *)
    m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame root;
    m.Machine.cr.Cr.cr4 <- Cr.cr4_pae lor Cr.cr4_smep;
    m.Machine.cr.Cr.efer <- Cr.efer_lme lor Cr.efer_nx;
    m.Machine.cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp;
    Tlb.flush_all m.Machine.tlb;
    (* Give the CPU a writable boot stack (top of the last outer frame)
       so gate crossings work before the outer kernel sets up its own. *)
    Cpu_state.set m.Machine.cpu Insn.RSP (Addr.kva_of_frame total);
    let heap =
      Pheap.create
        ~base:(Addr.kva_of_frame heap_first)
        ~size:(l.heap_frames * Addr.page_size)
    in
    Ok
      {
        State.machine = m;
        gate;
        descs;
        heap;
        root_pml4 = root;
        idt_va;
        nk_first_frame = nk_first;
        nk_frame_count = nk_count;
        write_descriptors = Hashtbl.create 32;
        pcid_roots =
          (let h = Hashtbl.create 8 in
           Hashtbl.replace h 0 root;
           h);
        deferred = [];
        next_wd_id = 1;
        lock_held = false;
        denied_writes = 0;
        sc_roots = Array.make 8 0;
        sc_bases = Array.make 8 0;
        domains = Hashtbl.create 8;
        pipes = Hashtbl.create 8;
        next_domain = 1;
        cur_domain = 0;
      }
  end

let outer_first_frame (st : State.t) = st.nk_first_frame + st.nk_frame_count
