open Nkhw

type env = {
  machine : Machine.t;
  backend : Mmu_backend.t;
  falloc : Frame_alloc.t;
  share : (Addr.frame, int) Hashtbl.t;
  asids : Asid_pool.t option;
}

type prot = Ro | Rw
type kind = Anon | Text | Stack | File

type region = { r_start : Addr.va; r_len : int; r_prot : prot; r_kind : kind }

type t = {
  root : Addr.frame;
  mutable regions : region list;
  mutable next_mmap : Addr.va;
  mutable asid : int;
  mutable asid_stamp : int;
  mutable domain : int; (* tenant the space belongs to; 0 = host *)
}

let user_text_base = 0x0040_0000
let user_mmap_base = 0x1000_0000
let user_stack_top = 0x7F00_0000

(* Kernel-work cycle constants for the VM paths (the same in every
   configuration; only the MMU-update costs differ by backend). *)
let cost_region_setup = 420
let cost_page_insert = 180
let cost_page_remove = 110
let cost_fault_lookup = 1100

let ( let* ) = Result.bind

let charge env c = Machine.charge env.machine c

let oom = function
  | Ok v -> Ok v
  | Error (_ : Nested_kernel.Nk_error.t) -> Error Ktypes.Enomem

let share_count env frame =
  Option.value ~default:1 (Hashtbl.find_opt env.share frame)

let share_incr env frame =
  Hashtbl.replace env.share frame (share_count env frame + 1)

let share_decr env frame =
  let n = share_count env frame - 1 in
  if n <= 1 then Hashtbl.remove env.share frame
  else Hashtbl.replace env.share frame n;
  n

(* Retire a PTP: the frame may only return to the allocator once the
   vMMU has dropped its type; otherwise a later reuse as an ordinary
   data page would alias a table the vMMU still tracks.  On a failed
   remove the frame is leaked instead — safe, merely lost. *)
let retire_ptp env ptp =
  match env.backend.Mmu_backend.remove_ptp ptp with
  | Ok () -> if Frame_alloc.owns env.falloc ptp then Frame_alloc.free env.falloc ptp
  | Error (_ : Nested_kernel.Nk_error.t) -> ()

(* Unlink the kernel half (PML4 slots 256..511) a root shares, so the
   root is empty again, then retire it. *)
let clear_kernel_half env root =
  for index = 256 to Addr.entries_per_table - 1 do
    let e = Page_table.get_entry env.machine.Machine.mem ~ptp:root ~index in
    if Pte.is_present e then
      ignore (env.backend.Mmu_backend.write_pte ~ptp:root ~index Pte.empty)
  done;
  retire_ptp env root

let create ?(domain = 0) env ~kernel_root =
  match Frame_alloc.alloc env.falloc with
  | None -> Error Ktypes.Enomem
  | Some root -> (
      match oom (env.backend.Mmu_backend.declare_ptp ~level:4 root) with
      | Error e ->
          Frame_alloc.free env.falloc root;
          Error e
      | Ok () -> (
          (* Share the kernel half (PML4 slots 256..511) of the source
             root; its user half is never copied here — fork installs
             user mappings page by page for copy-on-write. *)
          let rec copy index =
            if index = Addr.entries_per_table then Ok ()
            else
              let e =
                Page_table.get_entry env.machine.Machine.mem ~ptp:kernel_root
                  ~index
              in
              if Pte.is_present e then
                let* () =
                  oom (env.backend.Mmu_backend.write_pte ~ptp:root ~index e)
                in
                copy (index + 1)
              else copy (index + 1)
          in
          let asid_pair () =
            match env.asids with
            | Some pool -> (
                (* A domain draws only from its own ASID partition; an
                   exhausted partition is EAGAIN, never a peer's tag. *)
                match Asid_pool.alloc ~domain pool with
                | Some pair -> Ok pair
                | None -> Error Ktypes.Eagain)
            | None -> Ok (0, 0)
          in
          match
            let* () = copy 256 in
            charge env cost_region_setup;
            asid_pair ()
          with
          | Error e ->
              clear_kernel_half env root;
              Error e
          | Ok (asid, asid_stamp) ->
              Ok
                {
                  root;
                  regions = [];
                  next_mmap = user_mmap_base;
                  asid;
                  asid_stamp;
                  domain;
                }))

(* The ASID to switch under, revalidated against the pool: if the slot
   was stolen since the last switch, take a fresh one (the steal
   already flushed the stale translations).  [None] means untagged
   switching (no pool, PCID off). *)
let ensure_asid env vm =
  match env.asids with
  | None -> None
  | Some pool ->
      if not (Asid_pool.valid pool ~asid:vm.asid ~stamp:vm.asid_stamp) then begin
        match Asid_pool.alloc ~domain:vm.domain pool with
        | Some (asid, stamp) ->
            vm.asid <- asid;
            vm.asid_stamp <- stamp
        | None ->
            (* Partition exhausted: switch untagged rather than borrow
               a peer's ASID.  The stale pair stays invalid, so the
               next switch retries. *)
            vm.asid <- 0;
            vm.asid_stamp <- 0
      end;
      if vm.asid = 0 then None else Some vm.asid

(* Walk down to the page table covering [va], allocating and declaring
   intermediate PTPs as needed.  Returns the level-1 PTP. *)
let ensure_pt env vm va =
  let rec descend ptp level =
    if level = 1 then Ok ptp
    else
      let index = Addr.index_at_level ~level va in
      let e = Page_table.get_entry env.machine.Machine.mem ~ptp ~index in
      if Pte.is_present e then descend (Pte.frame e) (level - 1)
      else
        match Frame_alloc.alloc env.falloc with
        | None -> Error Ktypes.Enomem
        | Some child -> (
            match
              oom (env.backend.Mmu_backend.declare_ptp ~level:(level - 1) child)
            with
            | Error e ->
                (* Never declared: the frame is still ordinary memory. *)
                Frame_alloc.free env.falloc child;
                Error e
            | Ok () -> (
                let link =
                  Pte.make ~frame:child
                    { Pte.kernel_rw with user = not (Addr.is_kernel_va va) }
                in
                match oom (env.backend.Mmu_backend.write_pte ~ptp ~index link) with
                | Error e ->
                    retire_ptp env child;
                    Error e
                | Ok () -> descend child (level - 1)))
  in
  descend vm.root 4

let leaf_of env vm va =
  match Page_table.walk env.machine.Machine.mem ~root:vm.root va with
  | Page_table.Mapped w -> Some w
  | Page_table.Not_mapped _ -> None

let flags_for prot kind =
  match (prot, kind) with
  | Ro, Text -> Pte.user_rx
  | Ro, (Anon | Stack | File) -> Pte.user_ro_nx
  | Rw, _ -> Pte.user_rw_nx

(* A frame for one page of [region], charged for what filling it
   costs. *)
let alloc_page env region =
  match Frame_alloc.alloc env.falloc with
  | None -> Error Ktypes.Enomem
  | Some frame ->
      (match region.r_kind with
      | File ->
          (* Page-cache hit: the file page is already resident; only the
             mapping bookkeeping and PTE insertion are paid. *)
          charge env (cost_page_insert + 100)
      | Text ->
          (* Program text comes from the page cache on a warm system. *)
          charge env (cost_page_insert + 150)
      | Anon | Stack ->
          Phys_mem.zero_frame env.machine.Machine.mem frame;
          charge env env.machine.Machine.costs.Costs.page_zero;
          charge env cost_page_insert);
      Ok frame

(* Back [va] with a fresh frame, handing its leaf to [push]: the
   backend's [write_pte] for a demand fault, which stays one PTE write
   and never a one-item batch, or a stage's [push] for an eager mmap.
   A leaf with no page table, or one [push] rejects, sends the frame
   straight back to the allocator. *)
let populate_page env vm va region push =
  let* frame = alloc_page env region in
  match
    let* ptp = ensure_pt env vm va in
    oom
      (push ~ptp ~index:(Addr.pt_index va)
         (Pte.make ~frame (flags_for region.r_prot region.r_kind)))
  with
  | Ok () -> Ok ()
  | Error e ->
      Frame_alloc.free env.falloc frame;
      Error e

let find_region vm va =
  List.find_opt
    (fun r -> va >= r.r_start && va < r.r_start + r.r_len)
    vm.regions

let region_overlaps vm start len =
  List.exists
    (fun r -> start < r.r_start + r.r_len && r.r_start < start + len)
    vm.regions

let release_frame env frame =
  if share_count env frame > 1 then ignore (share_decr env frame)
  else if Frame_alloc.owns env.falloc frame then Frame_alloc.free env.falloc frame

let unmap_region env vm start =
  match List.find_opt (fun r -> r.r_start = start) vm.regions with
  | None -> Error Ktypes.Einval
  | Some r ->
      vm.regions <- List.filter (fun r' -> r' != r) vm.regions;
      (* Gather every present leaf and clear them through one
         write_pte_batch call on every backend, not a stage: a batching
         backend coalesces the span's shootdowns, and every munmap
         draws the pte-batch injection site exactly once. *)
      let updates = ref [] in
      let va = ref r.r_start in
      while !va < r.r_start + r.r_len do
        (match leaf_of env vm !va with
        | None -> ()
        | Some w ->
            updates :=
              (w.Page_table.leaf_ptp, w.Page_table.leaf_index, Pte.empty)
              :: !updates;
            release_frame env w.Page_table.frame;
            charge env cost_page_remove);
        va := !va + Addr.page_size
      done;
      oom (env.backend.Mmu_backend.write_pte_batch (List.rev !updates))

let map_region env vm ?at ~len prot kind ~populate =
  if len <= 0 || len land (Addr.page_size - 1) <> 0 then Error Ktypes.Einval
  else begin
    let start =
      match at with
      | Some va -> va
      | None ->
          let va = vm.next_mmap in
          vm.next_mmap <- va + len + Addr.page_size;
          va
    in
    if (not (Addr.is_page_aligned start)) || region_overlaps vm start len then
      Error Ktypes.Einval
    else begin
      let region = { r_start = start; r_len = len; r_prot = prot; r_kind = kind } in
      vm.regions <- region :: vm.regions;
      charge env cost_region_setup;
      if not populate then Ok start
      else
        let s = Mmu_backend.stage env.backend in
        let rec fill va =
          if va >= start + len then oom (Mmu_backend.commit s)
          else
            let* () = populate_page env vm va region (Mmu_backend.push s) in
            fill (va + Addr.page_size)
        in
        match fill start with
        | Ok () -> Ok start
        | Error e ->
            (* A failed populate must not leave a half-filled region
               behind: hand back the frames whose leaves never landed,
               then unmap the region and whatever pages did land. *)
            List.iter
              (fun (_, _, pte) -> Frame_alloc.free env.falloc (Pte.frame pte))
              (Mmu_backend.unwritten s);
            ignore (unmap_region env vm start);
            Error e
    end
  end

(* After a permission upgrade the TLB may still hold the stale
   read-only entry; flush it or the fault repeats forever. *)
let flush_after_upgrade env va =
  Tlb.flush_page env.machine.Machine.tlb ~vpage:(Addr.vpage va);
  charge env env.machine.Machine.costs.Costs.invlpg

let handle_fault env vm va kind =
  charge env cost_fault_lookup;
  Machine.count_ev env.machine Nktrace.Vm_fault;
  match find_region vm va with
  | None -> Error Ktypes.Efault
  | Some region -> (
      let va_page = Addr.align_down va in
      match leaf_of env vm va_page with
      | None ->
          if kind = Fault.Write && region.r_prot = Ro then Error Ktypes.Efault
          else
            populate_page env vm va_page region
              env.backend.Mmu_backend.write_pte
      | Some w ->
          if kind = Fault.Write && region.r_prot = Rw then
            if not w.Page_table.writable then begin
              (* Copy-on-write resolution. *)
              let frame = w.Page_table.frame in
              if share_count env frame > 1 then (
                match Frame_alloc.alloc env.falloc with
                | None -> Error Ktypes.Enomem
                | Some fresh -> (
                    Phys_mem.frame_copy env.machine.Machine.mem ~src:frame
                      ~dst:fresh;
                    charge env env.machine.Machine.costs.Costs.page_copy;
                    (* Swing the PTE before dropping the share: if the
                       write fails, the old mapping is still intact and
                       the copy goes back to the allocator. *)
                    match
                      oom
                        (env.backend.Mmu_backend.write_pte
                           ~ptp:w.Page_table.leaf_ptp
                           ~index:w.Page_table.leaf_index
                           (Pte.make ~frame:fresh (flags_for Rw region.r_kind)))
                    with
                    | Error e ->
                        Frame_alloc.free env.falloc fresh;
                        Error e
                    | Ok () ->
                        ignore (share_decr env frame);
                        flush_after_upgrade env va_page;
                        Machine.count_ev env.machine Nktrace.Cow_copy;
                        Ok ()))
              else begin
                let* () =
                  oom
                    (env.backend.Mmu_backend.write_pte
                       ~ptp:w.Page_table.leaf_ptp ~index:w.Page_table.leaf_index
                       (Pte.make ~frame (flags_for Rw region.r_kind)))
                in
                flush_after_upgrade env va_page;
                Ok ()
              end
            end
            else Ok () (* spurious: stale TLB on another path *)
          else if kind = Fault.Write then Error Ktypes.Efault
          else Ok ())

(* Tear down the user half of the tree bottom-up, retiring PTPs. *)
let retire_user_tables env vm =
  let mem = env.machine.Machine.mem in
  let rec teardown ptp level ~first ~last =
    for index = first to last do
      let e = Page_table.get_entry mem ~ptp ~index in
      if Pte.is_present e then begin
        let child = Pte.frame e in
        let leaf = level = 1 || (level = 2 && Pte.is_large e) in
        if not leaf then begin
          teardown child (level - 1) ~first:0 ~last:(Addr.entries_per_table - 1);
          ignore (env.backend.Mmu_backend.write_pte ~ptp ~index Pte.empty);
          retire_ptp env child
        end
        else begin
          (* Stray leaf outside any region (shouldn't happen): drop it. *)
          ignore (env.backend.Mmu_backend.write_pte ~ptp ~index Pte.empty);
          release_frame env child
        end
      end
    done
  in
  (* Only the user half (PML4 slots 0..255); the kernel half is shared. *)
  teardown vm.root 4 ~first:0 ~last:255

let unmap_all env vm =
  List.iter (fun r -> ignore (unmap_region env vm r.r_start)) vm.regions

let destroy env vm =
  unmap_all env vm;
  retire_user_tables env vm;
  clear_kernel_half env vm.root;
  (match env.asids with
  | Some pool -> Asid_pool.free pool ~asid:vm.asid ~stamp:vm.asid_stamp
  | None -> ());
  Machine.count_ev env.machine Nktrace.Vm_destroy

let fork env parent =
  let* child = create env ~kernel_root:parent.root in
  child.regions <- parent.regions;
  child.next_mmap <- parent.next_mmap;
  (* Parent downgrades and child installs each fill one stage; the
     downgrades commit first, so no child leaf is installed before the
     parent's copy of it is read-only. *)
  let downgrades = Mmu_backend.stage env.backend
  and installs = Mmu_backend.stage env.backend in
  let failure = ref None in
  Page_table.iter_user_leaves env.machine.Machine.mem ~root:parent.root
    (fun ~va ~ptp ~index pte ->
      if !failure = None then
        let ro = Pte.set_writable pte false in
        let step =
          let* () =
            if Pte.is_writable pte then
              oom (Mmu_backend.push downgrades ~ptp ~index ro)
            else Ok ()
          in
          let* pt = ensure_pt env child va in
          let* () =
            oom (Mmu_backend.push installs ~ptp:pt ~index:(Addr.pt_index va) ro)
          in
          share_incr env (Pte.frame pte);
          charge env cost_page_insert;
          Ok ()
        in
        match step with Ok () -> () | Error e -> failure := Some e);
  let result =
    match !failure with
    | Some e -> Error e
    | None ->
        let* () = oom (Mmu_backend.commit downgrades) in
        oom (Mmu_backend.commit installs)
  in
  match result with
  | Ok () ->
      Machine.count_ev env.machine Nktrace.Fork_vm;
      Ok child
  | Error e ->
      (* An install the child's tables do not hold must not keep its
         share; destroy then releases the installs that did land, one
         by one.  Parent downgrades that landed are harmless — a write
         re-upgrades through the spurious-COW path. *)
      List.iter
        (fun (_, _, pte) -> ignore (share_decr env (Pte.frame pte)))
        (Mmu_backend.unwritten installs);
      destroy env child;
      Error e

let exec_reset env vm ~text_pages ~data_pages ~stack_pages =
  unmap_all env vm;
  vm.regions <- [];
  vm.next_mmap <- user_mmap_base;
  let* _ =
    map_region env vm ~at:user_text_base
      ~len:(text_pages * Addr.page_size)
      Ro Text ~populate:true
  in
  let* _ =
    map_region env vm
      ~at:(user_text_base + (text_pages * Addr.page_size))
      ~len:(data_pages * Addr.page_size)
      Rw Anon ~populate:true
  in
  let* _ =
    map_region env vm
      ~at:(user_stack_top - (stack_pages * Addr.page_size))
      ~len:(stack_pages * Addr.page_size)
      Rw Stack ~populate:false
  in
  Machine.count_ev env.machine Nktrace.Exec;
  Ok ()

let populated_pages env vm =
  let n = ref 0 in
  Page_table.iter_user_leaves env.machine.Machine.mem ~root:vm.root
    (fun ~va:_ ~ptp:_ ~index:_ _ -> incr n);
  !n
