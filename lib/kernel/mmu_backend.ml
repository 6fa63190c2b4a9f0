open Nkhw

type t = {
  name : string;
  declare_ptp : level:int -> Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  write_pte :
    ptp:Addr.frame -> index:int -> Pte.t -> (unit, Nested_kernel.Nk_error.t) result;
  write_pte_batch :
    (Addr.frame * int * Pte.t) list -> (unit, Nested_kernel.Nk_error.t) result;
  remove_ptp : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3 : Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  load_cr3_pcid : pcid:int -> Addr.frame -> (unit, Nested_kernel.Nk_error.t) result;
  root_of_asid : int -> Addr.frame option;
  batched : bool;
}

let is_downgrade ~old ~fresh =
  Pte.is_present old
  && ((not (Pte.is_present fresh))
     || Pte.frame old <> Pte.frame fresh
     || (Pte.is_writable old && not (Pte.is_writable fresh)))

let native (m : Machine.t) =
  let costs = m.Machine.costs in
  (* Same clean-pair discipline as the vMMU keeps, tracked here since
     there is no nested kernel to do it. *)
  let pcid_roots : (int, Addr.frame) Hashtbl.t = Hashtbl.create 8 in
  (* Every root this backend ever loaded.  The currently live CR3 root
     (installed during boot, before the backend saw any load) is
     consulted separately. *)
  let roots_seen : (Addr.frame, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Leaf-table frame -> (root, base vpage) — where a PT was last
     found in a tree, re-verified by a three-entry walk before use. *)
  let pt_bases : (Addr.frame, Addr.frame * int) Hashtbl.t = Hashtbl.create 64 in
  let valid f = Phys_mem.valid_frame m.Machine.mem f in
  let table_child frame i =
    let e = Page_table.get_entry m.Machine.mem ~ptp:frame ~index:i in
    if Pte.is_present e && (not (Pte.is_large e)) && valid (Pte.frame e) then
      Some (Pte.frame e)
    else None
  in
  let idx base l = (base lsr (9 * l)) land (Addr.entries_per_table - 1) in
  let verify root ptp base =
    match table_child root (idx base 3) with
    | None -> false
    | Some pdpt -> (
        match table_child pdpt (idx base 2) with
        | None -> false
        | Some pd -> (
            match table_child pd (idx base 1) with
            | None -> false
            | Some pt -> pt = ptp))
  in
  let exception Found of int in
  (* Depth-first over one tree for [ptp] used as a level-1 table; the
     visited set survives self-referential table cycles. *)
  let find_pt_base root ptp =
    let visited = Hashtbl.create 64 in
    let rec scan level frame base =
      if not (Hashtbl.mem visited frame) then begin
        Hashtbl.add visited frame ();
        let child_span = 1 lsl (9 * (level - 1)) in
        for i = 0 to Addr.entries_per_table - 1 do
          match table_child frame i with
          | None -> ()
          | Some child ->
              let child_base = base + (i * child_span) in
              if level = 2 then begin
                if child = ptp then raise (Found child_base)
              end
              else scan (level - 1) child child_base
        done
      end
    in
    match scan 4 root 0 with () -> None | exception Found b -> Some b
  in
  (* The base vpage [ptp] translates from, if it is a live level-1
     table.  Host-side bookkeeping only — a real native kernel knows
     the VA of its own PTE writes for free, so no cycles are charged. *)
  let locate_leaf_table ptp =
    let roots =
      let live =
        if Cr.paging_enabled m.Machine.cr then [ Cr.root_frame m.Machine.cr ]
        else []
      in
      Hashtbl.fold (fun r () acc -> r :: acc) roots_seen live
      |> List.filter valid
      |> List.sort_uniq compare
    in
    match Hashtbl.find_opt pt_bases ptp with
    | Some (root, base) when List.mem root roots && verify root ptp base ->
        Some base
    | _ -> (
        let rec try_roots = function
          | [] ->
              Hashtbl.remove pt_bases ptp;
              None
          | r :: rest -> (
              match find_pt_base r ptp with
              | Some base ->
                  Hashtbl.replace pt_bases ptp (r, base);
                  Some base
              | None -> try_roots rest)
        in
        try_roots roots)
  in
  let load_cr3 frame =
    m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame frame;
    Machine.charge m costs.Costs.cr_write;
    Machine.flush_full m;
    Hashtbl.reset pcid_roots;
    Hashtbl.replace pcid_roots 0 frame;
    Hashtbl.replace roots_seen frame ();
    Machine.note_asid_active m;
    Machine.count_ev m Nktrace.Load_cr3;
    Ok ()
  in
  let load_cr3_pcid ~pcid frame =
    if pcid < 0 || pcid > Cr.max_pcid then
      Error (Nested_kernel.Nk_error.Invalid_pcid pcid)
    else if not (Cr.pcid_enabled m.Machine.cr) then load_cr3 frame
    else begin
      m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame ~pcid;
      Machine.charge m costs.Costs.cr_write;
      (match Hashtbl.find_opt pcid_roots pcid with
      | Some bound when bound = frame -> ()
      | _ ->
          (* Rebind: kill the tag's stale entries on every CPU still
             resident for it, or a parked peer would keep serving the
             old address space under the recycled tag. *)
          Machine.shootdown_asid m ~asid:pcid;
          Hashtbl.replace pcid_roots pcid frame);
      Hashtbl.replace roots_seen frame ();
      Machine.note_asid_active m;
      Machine.count_ev m Nktrace.Load_cr3_pcid;
      Ok ()
    end
  in
  let write_pte ~ptp ~index pte =
    let old = Page_table.get_entry m.Machine.mem ~ptp ~index in
    Page_table.set_entry m.Machine.mem ~ptp ~index pte;
    Machine.charge m costs.Costs.mem_insn;
    Machine.count_ev m Nktrace.Pte_write;
    if is_downgrade ~old ~fresh:pte then begin
      (* A downgraded level-1 leaf in a live tree gets the targeted
         single-page flush a stock kernel would issue for the VA it
         tracks; upper-level or unlinked entries fall back to a
         broadcast flush.  A stock kernel also knows which CPUs ever
         ran this address space (mm_cpumask) and IPIs only those —
         model that by scoping the flush to the tags bound to this
         tree's root; the machine's occupancy backstop keeps a parked
         peer that demonstrably still holds the entry targeted. *)
      match locate_leaf_table ptp with
      | Some base ->
          let scope =
            match Hashtbl.find_opt pt_bases ptp with
            | Some (root, _) ->
                Machine.Asids
                  (Hashtbl.fold
                     (fun pcid bound acc ->
                       if bound = root then pcid :: acc else acc)
                     pcid_roots [])
            | None -> Machine.Broadcast
          in
          Machine.shootdown_page ~scope m ~vpage:(base + index)
      | None -> Machine.shootdown_all m
    end;
    Ok ()
  in
  {
    name = "native";
    declare_ptp =
      (fun ~level frame ->
        (* A level-4 declare is a new tree root; remember it so leaf
           positions in not-yet-loaded address spaces are locatable. *)
        if level = 4 then Hashtbl.replace roots_seen frame ();
        Phys_mem.zero_frame m.Machine.mem frame;
        Machine.charge m costs.Costs.page_zero;
        Machine.count_ev m Nktrace.Declare_ptp;
        Ok ());
    write_pte;
    write_pte_batch =
      (fun updates ->
        List.iter
          (fun (ptp, index, pte) ->
            match write_pte ~ptp ~index pte with Ok () -> () | Error _ -> ())
          updates;
        Ok ());
    remove_ptp =
      (fun frame ->
        Hashtbl.remove pt_bases frame;
        Hashtbl.remove roots_seen frame;
        Ok ());
    load_cr3;
    load_cr3_pcid;
    root_of_asid = (fun asid -> Hashtbl.find_opt pcid_roots asid);
    batched = false;
  }

let nested_gen ~batched (st : Nested_kernel.State.t) =
  let module Api = Nested_kernel.Api in
  {
    name = (if batched then "nested-batched" else "nested");
    declare_ptp = (fun ~level frame -> Api.declare_ptp st ~level frame);
    write_pte = (fun ~ptp ~index pte -> Api.write_pte st ~ptp ~index pte);
    write_pte_batch =
      (fun updates ->
        if batched then Api.write_pte_batch st updates
        else
          let rec go = function
            | [] -> Ok ()
            | (ptp, index, pte) :: rest -> (
                match Api.write_pte st ~ptp ~index pte with
                | Ok () -> go rest
                | Error e -> Error e)
          in
          go updates);
    remove_ptp = (fun frame -> Api.remove_ptp st frame);
    load_cr3 = (fun frame -> Api.load_cr3 st frame);
    load_cr3_pcid = (fun ~pcid frame -> Api.load_cr3_pcid st ~pcid frame);
    root_of_asid = (fun asid -> Api.nk_root_of_asid st asid);
    batched;
  }

let nested st = nested_gen ~batched:false st
let nested_batched st = nested_gen ~batched:true st

(* Simulated hypervisor mediation (the paper's Table 3 comparison
   point): every MMU update leaves the guest through a VMCALL and
   re-enters, so each operation is charged the measured VM exit +
   dispatch + entry round trip on top of the native work.  Batch items
   each pay their own exit — a trap-and-emulate VMM sees one faulting
   store at a time.  Used by the multi-tenant bench as the
   full-address-space-worlds baseline. *)
let hypervisor (m : Machine.t) =
  let base = native m in
  let vmexit () =
    Machine.charge m m.Machine.costs.Costs.vmcall_roundtrip;
    Machine.count_ev m Nktrace.Vmcall
  in
  {
    base with
    name = "hyper";
    declare_ptp =
      (fun ~level frame ->
        vmexit ();
        base.declare_ptp ~level frame);
    write_pte =
      (fun ~ptp ~index pte ->
        vmexit ();
        base.write_pte ~ptp ~index pte);
    write_pte_batch =
      (fun updates ->
        let rec go = function
          | [] -> Ok ()
          | (ptp, index, pte) :: rest -> (
              vmexit ();
              match base.write_pte ~ptp ~index pte with
              | Ok () -> go rest
              | Error e -> Error e)
        in
        go updates);
    remove_ptp =
      (fun frame ->
        vmexit ();
        base.remove_ptp frame);
    load_cr3 =
      (fun frame ->
        vmexit ();
        base.load_cr3 frame);
    load_cr3_pcid =
      (fun ~pcid frame ->
        vmexit ();
        base.load_cr3_pcid ~pcid frame);
  }

(* Fault-injection shim: same record type, so it drops in anywhere a
   backend goes.  Only the PTE-write operations are fallible here —
   they are the calls a real kernel sees fail (vMMU rejection, remote
   hypercall timeout); control-register loads stay untouched so a
   faulted run can still switch address spaces and make progress. *)
let with_inject inj t =
  {
    t with
    write_pte =
      (fun ~ptp ~index pte ->
        if Nkinject.fire inj Nkinject.Pte_write_error then
          Error (Nested_kernel.Nk_error.Injected "write_pte")
        else t.write_pte ~ptp ~index pte);
    write_pte_batch =
      (fun updates ->
        if Nkinject.fire inj Nkinject.Pte_batch_error then
          Error (Nested_kernel.Nk_error.Injected "write_pte_batch")
        else t.write_pte_batch updates);
  }
