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
  batched : bool;
}

(* [write_pte_batch] for a backend with no batch entry point: one
   [write_pte] per tuple, in order, stopping at the first rejection
   with the vMMU's prefix contract — earlier tuples stay applied and
   [Batch_item] names the tuple that stopped the batch. *)
let split write_pte updates =
  let rec go i = function
    | [] -> Ok ()
    | (ptp, index, pte) :: rest -> (
        match write_pte ~ptp ~index pte with
        | Ok () -> go (i + 1) rest
        | Error error ->
            Error (Nested_kernel.Nk_error.Batch_item { index = i; error }))
  in
  go 0 updates

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
  (* What a stock pmap knows of its own tables for free: the level
     each live table was declared at, and the (parent, index) entry
     that last linked each table from a table declared at level 2 or
     above.  Links follow the entries themselves, so a retired table
     keeps its link until the entry holding it is rewritten. *)
  let levels : (Addr.frame, int) Hashtbl.t = Hashtbl.create 64 in
  let links : (Addr.frame, Addr.frame * int) Hashtbl.t = Hashtbl.create 64 in
  let level_of frame = Option.value ~default:0 (Hashtbl.find_opt levels frame) in
  let child e =
    if Pte.is_present e && not (Pte.is_large e) then Some (Pte.frame e) else None
  in
  (* The root and base vpage [ptp] translates from, if it is a declared
     level-1 table: climb the recorded links through parents declared
     exactly one level up until a declared root.  Host-side bookkeeping
     only — a real native kernel knows the VA of its own PTE writes for
     free, so no cycles are charged. *)
  let locate_leaf_table ptp =
    let rec climb frame level base =
      if level = 4 then Some (frame, base)
      else
        match Hashtbl.find_opt links frame with
        | Some (parent, index) when level_of parent = level + 1 ->
            climb parent (level + 1) (base + (index lsl (9 * level)))
        | _ -> None
    in
    if level_of ptp = 1 then climb ptp 1 0 else None
  in
  let load_cr3 frame =
    m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame frame;
    Machine.charge m costs.Costs.cr_write;
    Machine.flush_full m;
    Hashtbl.reset pcid_roots;
    Hashtbl.replace pcid_roots 0 frame;
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
    if level_of ptp >= 2 then begin
      (match child old with
      | Some c when Hashtbl.find_opt links c = Some (ptp, index) ->
          Hashtbl.remove links c
      | _ -> ());
      Option.iter (fun c -> Hashtbl.replace links c (ptp, index)) (child pte)
    end;
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
      | Some (root, base) ->
          let scope =
            Machine.Asids
              (Hashtbl.fold
                 (fun pcid bound acc -> if bound = root then pcid :: acc else acc)
                 pcid_roots [])
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
        Phys_mem.zero_frame m.Machine.mem frame;
        Hashtbl.replace levels frame level;
        Machine.charge m costs.Costs.page_zero;
        Machine.count_ev m Nktrace.Declare_ptp;
        Ok ());
    write_pte;
    write_pte_batch = split write_pte;
    remove_ptp =
      (fun frame ->
        Hashtbl.remove levels frame;
        Ok ());
    load_cr3;
    load_cr3_pcid;
    batched = false;
  }

let nested ~batched (st : Nested_kernel.State.t) =
  let module Api = Nested_kernel.Api in
  let write_pte ~ptp ~index pte = Api.write_pte st ~ptp ~index pte in
  {
    name = (if batched then "nested-batched" else "nested");
    declare_ptp = (fun ~level frame -> Api.declare_ptp st ~level frame);
    write_pte;
    write_pte_batch =
      (if batched then Api.write_pte_batch st else split write_pte);
    remove_ptp = (fun frame -> Api.remove_ptp st frame);
    load_cr3 = (fun frame -> Api.load_cr3 st frame);
    load_cr3_pcid = (fun ~pcid frame -> Api.load_cr3_pcid st ~pcid frame);
    batched;
  }

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
  let write_pte ~ptp ~index pte =
    vmexit ();
    base.write_pte ~ptp ~index pte
  in
  {
    base with
    name = "hyper";
    declare_ptp =
      (fun ~level frame ->
        vmexit ();
        base.declare_ptp ~level frame);
    write_pte;
    write_pte_batch = split write_pte;
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

type stage = {
  backend : t;
  mutable queued : (Addr.frame * int * Pte.t) list;
      (* newest first; after a failed commit, only what did not land *)
}

let stage backend = { backend; queued = [] }

let push s ~ptp ~index pte =
  if s.backend.batched then begin
    s.queued <- (ptp, index, pte) :: s.queued;
    Ok ()
  end
  else s.backend.write_pte ~ptp ~index pte

let commit s =
  if not s.backend.batched then Ok ()
  else
    let updates = List.rev s.queued in
    let result = s.backend.write_pte_batch updates in
    (match result with
    | Ok () -> s.queued <- []
    | Error (Nested_kernel.Nk_error.Batch_item { index; _ }) ->
        s.queued <- List.rev (List.filteri (fun i _ -> i >= index) updates)
    | Error _ -> ());
    result

let unwritten s = List.rev s.queued
