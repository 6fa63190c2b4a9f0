open Nkhw

let ( let* ) = Result.bind

(* Per-domain policy set: the host may restrict which write-protection
   policies a tenant can declare; unrestricted (and host) callers pass
   for free. *)
let policy_permitted (st : State.t) (policy : Policy.t) =
  match State.find_domain st st.State.cur_domain with
  | Some { State.dom_policies = Some allowed; _ }
    when not (List.mem policy.Policy.name allowed) ->
      State.count_denial st;
      Error
        (Nk_error.Policy_violation
           {
             policy = policy.Policy.name;
             reason =
               Printf.sprintf "policy not permitted for domain %d"
                 st.State.cur_domain;
           })
  | _ -> Ok ()

let fresh_wd (st : State.t) ~base ~size ~policy ~from_heap =
  let wd =
    {
      State.wd_id = st.next_wd_id;
      wd_base = base;
      wd_size = size;
      wd_policy = policy;
      wd_active = true;
      wd_from_heap = from_heap;
    }
  in
  st.next_wd_id <- st.next_wd_id + 1;
  State.register_wd st wd;
  wd

(* Frames covered by [base, base+size).  Protected regions live in the
   kernel direct map, so the frame of a page is immediate. *)
let region_frames ~base ~size =
  if size <= 0 then invalid_arg "Wp_service: non-positive size";
  let first = Addr.align_down base and last = Addr.align_down (base + size - 1) in
  let rec go va acc =
    if va > last then List.rev acc
    else go (va + Addr.page_size) (Addr.frame_of_pa (va - Addr.kernbase) :: acc)
  in
  go first []

let protect_frame (st : State.t) frame =
  let m = st.machine in
  List.iter
    (fun (mp : Pgdesc.mapping) ->
      match mp.kind with
      | Pgdesc.Table_link -> ()
      | Pgdesc.Data_map ->
          let e = Page_table.get_entry m.Machine.mem ~ptp:mp.ptp ~index:mp.index in
          let e' = Pte.set_nx (Pte.set_writable e false) true in
          ignore
            (Machine.kwrite_u64 m
               (State.entry_va_of_pte ~ptp:mp.ptp ~index:mp.index)
               e'))
    (Pgdesc.mappings st.descs frame);
  Machine.shootdown_page m ~vpage:(Addr.vpage (Addr.kva_of_frame frame));
  Pgdesc.set_type st.descs frame Pgdesc.Protected_data;
  Iommu.protect_frame m.Machine.iommu frame

let declare st ~base ~size policy =
  State.with_gate st (fun () ->
      let* () = policy_permitted st policy in
      if not (Addr.is_kernel_va base) || size <= 0 then
        Error (Nk_error.Bad_bounds { dest = base; size })
      else
        let frames = region_frames ~base ~size in
        let declarable f =
          match Pgdesc.page_type st.descs f with
          | Pgdesc.Unused | Pgdesc.Outer_data | Pgdesc.Protected_data -> true
          | Pgdesc.Ptp _ | Pgdesc.Nk_code | Pgdesc.Nk_data | Pgdesc.Nk_stack
          | Pgdesc.Outer_code | Pgdesc.User ->
              false
        in
        match List.find_opt (fun f -> not (declarable f)) frames with
        | Some bad ->
            Error
              (Nk_error.Not_declarable
                 { frame = bad; why = "page type cannot hold protected data" })
        | None ->
            List.iter (protect_frame st) frames;
            Machine.count_ev st.machine Nktrace.Nk_declare;
            Ok (fresh_wd st ~base ~size ~policy ~from_heap:false))

let alloc st ~size policy =
  State.with_gate st (fun () ->
      let* () = policy_permitted st policy in
      match Pheap.alloc st.heap size with
      | None -> Error Nk_error.Out_of_protected_memory
      | Some va ->
          Machine.count_ev st.machine Nktrace.Nk_alloc;
          let wd = fresh_wd st ~base:va ~size ~policy ~from_heap:true in
          Ok (wd, va))

let free st (wd : State.wd) =
  State.with_gate st (fun () ->
      if not wd.State.wd_active then Error Nk_error.Descriptor_inactive
      else begin
        wd.State.wd_active <- false;
        (* The [wd_active] guard means a live descriptor frees its heap
           block exactly once; an [Invalid_free] here is surfaced, not
           fatal, and the descriptor stays retired either way. *)
        let* () =
          if wd.State.wd_from_heap then Pheap.free st.heap wd.State.wd_base
          else Ok ()
        in
        Machine.count_ev st.machine Nktrace.Nk_free;
        Ok ()
      end)

let span_write = Nktrace.span_id Nktrace.Wp_write

let write st (wd : State.wd) ~dest data =
  let size = Bytes.length data in
  if not wd.State.wd_active then Error Nk_error.Descriptor_inactive
  else if
    size < 0 || dest < wd.State.wd_base
    || dest + size > wd.State.wd_base + wd.State.wd_size
  then Error (Nk_error.Bad_bounds { dest; size })
  else begin
    let tr = st.State.machine.Machine.trace in
    Nktrace.span_begin tr span_write;
    let r =
      State.with_gate st (fun () ->
          let m = st.machine in
          let offset = dest - wd.State.wd_base in
          let* old =
            match Machine.kread_bytes m dest size with
            | Ok b -> Ok b
            | Error f -> Error (Nk_error.Hardware f)
          in
          match wd.State.wd_policy.Policy.mediate ~offset ~old ~data with
          | Policy.Deny reason ->
              st.State.denied_writes <- st.State.denied_writes + 1;
              Machine.count_ev m Nktrace.Nk_write_denied;
              if Nktrace.enabled tr then
                Nktrace.mark tr
                  ("policy_denial:" ^ wd.State.wd_policy.Policy.name);
              Error
                (Nk_error.Policy_violation
                   { policy = wd.State.wd_policy.Policy.name; reason })
          | Policy.Allow -> (
              match Machine.kwrite_bytes m dest data with
              | Error f -> Error (Nk_error.Hardware f)
              | Ok () ->
                  wd.State.wd_policy.Policy.commit ~offset ~old ~data;
                  Machine.count_ev m Nktrace.Nk_write;
                  Ok ()))
    in
    Nktrace.span_end tr span_write;
    r
  end

let read st (wd : State.wd) ~src ~len =
  if not wd.State.wd_active then Error Nk_error.Descriptor_inactive
  else if
    len < 0 || src < wd.State.wd_base
    || src + len > wd.State.wd_base + wd.State.wd_size
  then Error (Nk_error.Bad_bounds { dest = src; size = len })
  else
    match Machine.kread_bytes st.State.machine src len with
    | Ok b -> Ok b
    | Error f -> Error (Nk_error.Hardware f)

(* The faulting store's byte range [dest, dest+len): it must land on
   protected-data pages and stay clear of every active descriptor. *)
let emulate_colocated_write st ~dest data =
  let m = st.State.machine in
  let len = Bytes.length data in
  if len = 0 || not (Addr.is_kernel_va dest) then
    Error (Nk_error.Bad_bounds { dest; size = len })
  else begin
    (* The trap that brought us here. *)
    Machine.charge m m.Machine.costs.Costs.trap_roundtrip;
    Machine.count_ev m Nktrace.Colocated_trap;
    let on_protected_pages =
      List.for_all
        (fun f -> Pgdesc.page_type st.State.descs f = Pgdesc.Protected_data)
        (region_frames ~base:dest ~size:len)
    in
    if not on_protected_pages then
      Error (Nk_error.Bad_bounds { dest; size = len })
    else if Pheap.contains st.State.heap dest then
      (* The nested kernel's own heap never holds co-located outer
         data; a store there is an attack, not a granularity gap. *)
      Error
        (Nk_error.Policy_violation
           {
             policy = "colocated-emulation";
             reason = "target is nested-kernel heap memory";
           })
    else
      let overlaps_wd =
        Hashtbl.fold
          (fun _ (wd : State.wd) acc ->
            acc
            || wd.State.wd_active
               && dest < wd.State.wd_base + wd.State.wd_size
               && wd.State.wd_base < dest + len)
          st.State.write_descriptors false
      in
      if overlaps_wd then
        Error
          (Nk_error.Policy_violation
             {
               policy = "colocated-emulation";
               reason = "target overlaps a write descriptor; use nk_write";
             })
      else
        State.with_gate st (fun () ->
            match Machine.kwrite_bytes m dest data with
            | Ok () ->
                Machine.count_ev m Nktrace.Colocated_emulated_write;
                Ok ()
            | Error f -> Error (Nk_error.Hardware f))
  end
