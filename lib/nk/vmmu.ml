open Nkhw

let ( let* ) = Result.bind

let hw_result = function Ok v -> Ok v | Error f -> Error (Nk_error.Hardware f)

(* Wrap one vMMU operation in a tracing span covering the whole call,
   gate crossings included.  Out-of-band: charges nothing, and is a
   single boolean test while tracing is disabled. *)
let traced (st : State.t) sp f =
  let tr = st.machine.Machine.trace in
  Nktrace.span_begin tr sp;
  let r = f () in
  Nktrace.span_end tr sp;
  r

let vmmu_span op = Nktrace.span_id (Nktrace.Vmmu_op op)
let span_write_pte = vmmu_span "write_pte"
let span_write_pte_batch = vmmu_span "write_pte_batch"
let span_declare_ptp = vmmu_span "declare_ptp"
let span_remove_ptp = vmmu_span "remove_ptp"
let shootdown_span scope = Nktrace.span_id (Nktrace.Shootdown scope)
let span_shoot_page = shootdown_span "page"
let span_shoot_span = shootdown_span "span"
let span_shoot_all = shootdown_span "all"

(* An entry in a level-L table is a leaf translation if L = 1, or if
   L = 2 with the large-page bit set; otherwise it links a child PTP. *)
let entry_is_leaf ~level pte = level = 1 || (level = 2 && Pte.is_large pte)

(* --- domain ownership (I14) --------------------------------------- *)

(* Every mediated operation names frames; none may cross the ownership
   lattice: the host (domain 0) touches anything, host-owned frames
   are shared, and a tenant otherwise only touches its own.  Denials
   are typed errors plus counters — never aborts — so a hostile tenant
   learns nothing and damages nothing. *)
let check_owner (st : State.t) ~op frame =
  let owner = Pgdesc.owner st.descs frame in
  if State.owner_ok st owner then Ok ()
  else begin
    State.count_denial ~op st;
    Error
      (Nk_error.Cross_domain
         { domain = st.State.cur_domain; owner; frame; op })
  end

(* Ownership of everything a fresh PTE would reach: the linked child
   PTP for a non-leaf, every frame of the span for a leaf (a 2 MiB
   leaf covers 512 frames and one stolen frame in the middle is just
   as much a breach as the first).

   Targets are judged against the PTE's *effective* domain: the
   current tenant, or — when the host writes into a tenant-owned
   table — that table's owner.  I14 is a property of the installed
   state ("no PTE under domain A's tables reaches domain B's frame"),
   so host authority does not license installing one tenant's frame
   where another tenant's walks will find it.  Host writes into host
   tables stay unrestricted. *)
let check_pte_targets (st : State.t) ~ptp ~level pte =
  let eff =
    if st.State.cur_domain <> 0 then st.State.cur_domain
    else Pgdesc.owner st.descs ptp
  in
  if eff = 0 || not (Pte.is_present pte) then Ok ()
  else
    let check ~op frame =
      let owner = Pgdesc.owner st.descs frame in
      if owner = 0 || owner = eff then Ok ()
      else begin
        State.count_denial ~op st;
        Error (Nk_error.Cross_domain { domain = eff; owner; frame; op })
      end
    in
    let target = Pte.frame pte in
    if not (Phys_mem.valid_frame st.machine.Machine.mem target) then
      Ok () (* validate_and_adjust rejects out-of-range targets *)
    else if not (entry_is_leaf ~level pte) then check ~op:"link" target
    else begin
      let span = if Pte.is_large pte then Addr.entries_per_table else 1 in
      let last =
        min (target + span - 1)
          (Phys_mem.num_frames st.machine.Machine.mem - 1)
      in
      let rec go f =
        if f > last then Ok ()
        else
          match check ~op:"write_pte" f with
          | Ok () -> go (f + 1)
          | Error _ as e -> e
      in
      go target
    end

let mapping_kind ~level pte : Pgdesc.mapping_kind =
  if entry_is_leaf ~level pte then Pgdesc.Data_map else Pgdesc.Table_link

(* Validate a PTE the outer kernel wants installed and return the
   (possibly downgraded) value that will actually be written. *)
let validate_and_adjust (st : State.t) ~level pte =
  if not (Pte.is_present pte) then Ok pte
  else
    let target = Pte.frame pte in
    if not (Phys_mem.valid_frame st.machine.Machine.mem target) then
      Error
        (Nk_error.Not_declarable { frame = target; why = "beyond physical memory" })
    else if not (entry_is_leaf ~level pte) then
      (* Non-leaf: must link a declared PTP of the next level down (I4). *)
      match Pgdesc.ptp_level st.descs target with
      | Some l when l = level - 1 -> Ok pte
      | Some l ->
          Error (Nk_error.Wrong_level { frame = target; expected = level - 1; actual = l })
      | None -> Error (Nk_error.Not_a_ptp target)
    else begin
      (* Leaf: downgrade according to the target page's type.  A 2 MiB
         large page covers 512 consecutive frames — every one of them
         must satisfy the protection rules, not just the first. *)
      let span = if Pte.is_large pte then Addr.entries_per_table else 1 in
      if not (Phys_mem.valid_frame st.machine.Machine.mem (target + span - 1))
      then
        Error
          (Nk_error.Not_declarable
             { frame = target + span - 1; why = "beyond physical memory" })
      else begin
        let adjust_for frame pte =
          match Pgdesc.page_type st.descs frame with
          | Pgdesc.Ptp _ | Pgdesc.Nk_data | Pgdesc.Nk_stack
          | Pgdesc.Protected_data ->
              Pte.set_nx (Pte.set_writable pte false) true
          | Pgdesc.Nk_code -> Pte.set_writable pte false
          | Pgdesc.Outer_code ->
              let pte = Pte.set_writable pte false in
              if Pgdesc.is_validated st.descs frame then pte
              else Pte.set_nx pte true
          | Pgdesc.Outer_data -> Pte.set_nx pte true
          | Pgdesc.User -> pte
          | Pgdesc.Unused ->
              if Pte.is_user pte then pte else Pte.set_nx pte true
        in
        (* A global leaf would survive CR3 reloads and single-ASID
           (INVPCID) shootdowns — in particular the one [load_cr3_pcid]
           issues when a PCID is rebound to a different root — serving
           a stale translation under an address space that never mapped
           it.  That is only sound for mappings the nested kernel knows
           are identical in every address space (its own boot-time
           direct map); a leaf supplied by the untrusted outer kernel
           never qualifies, so the G bit is stripped like any other
           over-permission. *)
        let adjusted = ref (Pte.set_global pte false) in
        for f = target to target + span - 1 do
          adjusted := adjust_for f !adjusted
        done;
        Ok !adjusted
      end
    end

let is_protection_downgrade ~old ~fresh =
  Pte.is_present old
  && ((not (Pte.is_present fresh))
     || Pte.frame old <> Pte.frame fresh
     || (Pte.is_writable old && not (Pte.is_writable fresh))
     || (Pte.is_user old && not (Pte.is_user fresh))
     || ((not (Pte.is_nx old)) && Pte.is_nx fresh))

(* Virtual pages one entry of a level-[level] table translates:
   1 at the PT, 512 at the PD (a 2 MiB leaf or a linked PT), and so
   on up the hierarchy. *)
let pages_per_entry level =
  let rec go n l = if l <= 1 then n else go (n * Addr.entries_per_table) (l - 1) in
  go 1 level

(* Give up on targeted shootdowns once a PTP is reachable from more
   than this many positions; a broadcast flush is cheaper than a pile
   of span invalidations. *)
let max_shootdown_positions = 8

(* (root, base) pairs at which [ptp] is reachable: the level-4 root
   the path climbs to, and the base virtual-page number the path
   accumulates.  Computed by climbing the nested kernel's own reverse
   maps (Table_link entries) and written into the State's scratch
   arrays ([sc_roots]/[sc_bases]) instead of consing a pair list per
   write_pte.  Returns the number of pairs, or [-1] for "couldn't
   bound the set": too many positions, or a climb that cannot be a
   consistent link chain (deeper than the 4-level hierarchy allows, as
   a link cycle would be).  An unlinked PTP yields [0].  The root is
   what ASID scoping keys on — it identifies which address spaces can
   reach the flushed range at all. *)
exception Unbounded_positions

let ptp_base_vpages (st : State.t) ptp =
  let roots = st.State.sc_roots and bases = st.State.sc_bases in
  let n = ref 0 in
  let rec climb depth frame off =
    if depth > 4 then raise Unbounded_positions
    else
      match Pgdesc.ptp_level st.descs frame with
      | None -> raise Unbounded_positions
      | Some 4 ->
          if !n >= max_shootdown_positions then raise Unbounded_positions;
          roots.(!n) <- frame;
          bases.(!n) <- off;
          incr n
      | Some level ->
          List.iter
            (fun (mp : Pgdesc.mapping) ->
              climb (depth + 1) mp.Pgdesc.ptp
                (off + (mp.Pgdesc.index * pages_per_entry (level + 1))))
            (Pgdesc.table_links st.descs frame)
  in
  match climb 0 ptp 0 with () -> !n | exception Unbounded_positions -> -1

(* ASID scope for a set of (root, vpage) flush targets.  A kernel-half
   vpage may be cached as a global entry or under any tag — no
   residency table narrows that down, so its scope carries no ASIDs
   and targeting falls entirely to the occupancy probe inside
   [Machine.shoot_peers]: [Tlb.holds_span] sees globals and every
   ASID, and the page/span flushes kill both, so a peer is flushed
   exactly when it still holds a live translation of the span.  (The
   alternative — [Broadcast] — IPIs every peer for every PTP declare's
   direct-map downgrade, a cost that grows with the CPU count.)
   User-half targets can only have been filled under the ASIDs
   currently bound (per the clean-pair table) to one of the roots
   involved: rebinding a PCID shoots the old tag down first (see
   [load_cr3_pcid]), so entries cached under any other tag cannot
   alias these roots.  [Asids []] — no bound ASID at all — is sound
   for the same reason, and the occupancy probe independently
   backstops every case.  The ASID list is sorted so equal scopes
   compare equal structurally (batch coalescing groups by scope). *)
let scope_no_asids = Machine.Asids []

let scope_of_targets (st : State.t) n =
  let roots = st.State.sc_roots and bases = st.State.sc_bases in
  let kernel = ref false in
  for i = 0 to n - 1 do
    if Addr.is_kernel_va (bases.(i) * Addr.page_size) then kernel := true
  done;
  if !kernel then scope_no_asids
  else
    let asids =
      Hashtbl.fold
        (fun pcid root acc ->
          let reaches = ref false in
          for i = 0 to n - 1 do
            if roots.(i) = root then reaches := true
          done;
          if !reaches && not (List.mem pcid acc) then pcid :: acc else acc)
        st.State.pcid_roots []
    in
    if asids = [] then scope_no_asids
    else Machine.Asids (List.sort compare asids)

(* Everything the entry at [index] of [ptp] can translate, as concrete
   flush work: [`Spans (scope, (vpage, count) list)], or [`All] when
   the position set is unboundable.  The scope is derived from the
   reverse maps — never from a caller hint: the outer kernel is
   untrusted, and a wrong (or absent) hint must not leave a stale
   translation cached — in particular a 2 MiB leaf covers 512 virtual
   pages that the MMU caches individually, so flushing one hinted page
   alone would leave up to 511 stale-writable entries. *)
let entry_invalidations (st : State.t) ~ptp ~index ~level =
  let span = pages_per_entry level in
  let n = if span <= Addr.entries_per_table then ptp_base_vpages st ptp else 0 in
  if n <= 0 then
    (* Unlinked (a stale entry could still have been cached before
       the unlink), unboundable, or a span wider than one PD entry:
       flush everything, globals included. *)
    `All
  else begin
    let bases = st.State.sc_bases in
    for i = 0 to n - 1 do
      bases.(i) <- bases.(i) + (index * span)
    done;
    (* The spans list is the one allocation kept: it outlives the
       scratch (deferred-flush records and batch accumulators hold on
       to it), and it is bounded by the 8-position cap. *)
    let spans = ref [] in
    for i = n - 1 downto 0 do
      spans := (bases.(i), span) :: !spans
    done;
    `Spans (scope_of_targets st n, !spans)
  end

let issue_spans (st : State.t) ~scope spans =
  let m = st.machine in
  let tr = m.Machine.trace in
  List.iter
    (fun (vpage, count) ->
      let sp = if count = 1 then span_shoot_page else span_shoot_span in
      Nktrace.span_begin tr sp;
      if count = 1 then Machine.shootdown_page ~scope m ~vpage
      else Machine.shootdown_span ~scope m ~vpage ~count;
      Nktrace.span_end tr sp)
    spans

let issue_all (st : State.t) =
  let m = st.machine in
  let tr = m.Machine.trace in
  Nktrace.span_begin tr span_shoot_all;
  Machine.shootdown_all m;
  Nktrace.span_end tr span_shoot_all

(* --- deferred (lazy) unmap invalidation --------------------------- *)

(* A pure 4 KiB unmap of an ordinary data frame does not need its
   shootdown immediately: the stale translation only reaches content
   the process could already access, and becomes dangerous solely when
   the frame is handed to a new owner.  So the flush is queued and
   fired at the reuse barriers instead — frame re-allocation
   ([Frame_alloc.set_on_alloc], wired at kernel boot), a new mapping
   of the frame or through the same slot ([apply_update]), and PTP
   declaration ([declare_ptp]).  Every queued record is visible to the
   coherence oracle via [State.is_deferred], so the tolerated
   staleness is declared, bounded, and audited. *)

let deferred_cap = 128

let flush_pending (st : State.t) (r : State.pending_flush) =
  Machine.count_ev st.machine Nktrace.Flush_on_reuse;
  issue_spans st ~scope:r.State.pf_scope r.State.pf_spans

let flush_deferred_frame (st : State.t) frame =
  match Hashtbl.find_opt st.State.deferred_frames frame with
  | None -> ()
  | Some recs ->
      (* Issue first, retire after: the records stay visible to the
         oracle (which fires from inside each shootdown) until every
         span is actually flushed. *)
      List.iter (flush_pending st) recs;
      Hashtbl.remove st.State.deferred_frames frame;
      st.State.deferred_count <- st.State.deferred_count - List.length recs;
      List.iter
        (fun (r : State.pending_flush) ->
          match Hashtbl.find_opt st.State.deferred_slots r.State.pf_slot with
          | Some f when f = frame ->
              Hashtbl.remove st.State.deferred_slots r.State.pf_slot
          | _ -> ())
        recs

let flush_deferred_slot (st : State.t) ~ptp ~index =
  match Hashtbl.find_opt st.State.deferred_slots (ptp, index) with
  | None -> ()
  | Some frame -> flush_deferred_frame st frame

let flush_all_deferred (st : State.t) =
  let frames =
    Hashtbl.fold (fun f _ acc -> f :: acc) st.State.deferred_frames []
  in
  List.iter (flush_deferred_frame st) (List.sort compare frames)

(* Drain every record queued by one domain's unmaps: the teardown
   barrier.  Whole frames flush at once (a peer's records on the same
   frame go too — conservative, never unsound). *)
let flush_domain_deferred (st : State.t) domain =
  let frames =
    Hashtbl.fold
      (fun f recs acc ->
        if List.exists (fun (r : State.pending_flush) -> r.State.pf_domain = domain) recs
        then f :: acc
        else acc)
      st.State.deferred_frames []
  in
  List.iter (flush_deferred_frame st) (List.sort compare frames)

let defer_unmap (st : State.t) ~frame ~slot ~scope spans =
  if st.State.deferred_count >= deferred_cap then flush_all_deferred st;
  (* Pin the flush audience down now: a stale copy of this translation
     can only live in a TLB that was resident when the PTE was cleared
     — a CPU that becomes resident later walks the already-cleared
     entry and can never cache it.  Resolving the ASID scope at reuse
     time instead would target every CPU the address space visits in
     between (it only grows), so snapshot the residency mask here. *)
  let scope =
    match scope with
    | Machine.Asids asids ->
        Machine.Cpuset
          (List.fold_left
             (fun acc a -> acc lor Machine.residency st.machine ~asid:a)
             0 asids)
    | s -> s
  in
  let r =
    { State.pf_frame = frame; pf_slot = slot; pf_scope = scope; pf_spans = spans;
      pf_domain = st.State.cur_domain }
  in
  let cur =
    Option.value (Hashtbl.find_opt st.State.deferred_frames frame) ~default:[]
  in
  Hashtbl.replace st.State.deferred_frames frame (r :: cur);
  Hashtbl.replace st.State.deferred_slots slot frame;
  st.State.deferred_count <- st.State.deferred_count + 1;
  Machine.count_ev st.machine Nktrace.Flush_deferred

(* Deferral never applies to anything that could carry kernel, PTP or
   protected mappings: only a present 4 KiB leaf over an ordinary
   data frame, removed outright (not downgraded in place), qualifies.
   Everything else keeps the eager shootdown. *)
let defer_eligible (st : State.t) ~level ~old ~fresh =
  level = 1
  && Pte.is_present old
  && (not (Pte.is_present fresh))
  && (not (Pte.is_global old))
  &&
  match Pgdesc.page_type st.descs (Pte.frame old) with
  | Pgdesc.User | Pgdesc.Outer_data | Pgdesc.Unused -> true
  | Pgdesc.Ptp _ | Pgdesc.Nk_code | Pgdesc.Nk_data | Pgdesc.Nk_stack
  | Pgdesc.Protected_data | Pgdesc.Outer_code ->
      false

(* --- batch shootdown coalescing ----------------------------------- *)

(* Per-PTE shootdowns accumulated across one [write_pte_batch] and
   issued together at the end: contiguous or overlapping spans with
   the same scope merge into single range shootdowns, and any [`All]
   collapses the whole batch into one broadcast.  Sound because the
   entire batch runs inside one gate crossing — the TLBs only need to
   be coherent again by gate exit, exactly when the flush fires. *)
type batch_acc = {
  mutable ba_alls : int;
  mutable ba_invals : (Machine.shootdown_scope * int * int) list;
}

let accumulate acc = function
  | `All -> acc.ba_alls <- acc.ba_alls + 1
  | `Spans (scope, spans) ->
      List.iter
        (fun (vpage, count) ->
          acc.ba_invals <- (scope, vpage, count) :: acc.ba_invals)
        spans

let flush_batch_acc (st : State.t) acc =
  let tr = st.machine.Machine.trace in
  let raw = acc.ba_alls + List.length acc.ba_invals in
  if raw = 0 then ()
  else if acc.ba_alls > 0 then begin
    issue_all st;
    if raw > 1 then Nktrace.count_n tr Nktrace.Shootdown_coalesced (raw - 1)
  end
  else begin
    (* Sort by (scope, vpage) so same-scope runs are adjacent, then
       merge contiguous/overlapping spans. *)
    let sorted = List.sort compare acc.ba_invals in
    let merged =
      List.fold_left
        (fun groups (scope, vp, n) ->
          match groups with
          | (scope', vp', n') :: tl when scope' = scope && vp <= vp' + n' ->
              (scope', vp', max (vp' + n') (vp + n) - vp') :: tl
          | _ -> (scope, vp, n) :: groups)
        [] sorted
    in
    List.iter
      (fun (scope, vpage, count) -> issue_spans st ~scope [ (vpage, count) ])
      (List.rev merged);
    let saved = raw - List.length merged in
    if saved > 0 then Nktrace.count_n tr Nktrace.Shootdown_coalesced saved
  end;
  acc.ba_alls <- 0;
  acc.ba_invals <- []

(* Perform one validated PTE update inside the gate: maintain reverse
   maps, write through the direct map (WP is clear, so the read-only
   PTP mapping accepts the supervisor store), and keep the TLB
   coherent on downgrades — eagerly, coalesced into [batch], or
   deferred to the frame's reuse when the unmap qualifies. *)
let apply_update ?batch (st : State.t) ~ptp ~index ~level fresh =
  let m = st.machine in
  let old = Page_table.get_entry m.Machine.mem ~ptp ~index in
  let* () =
    hw_result (Machine.kwrite_u64 m (State.entry_va_of_pte ~ptp ~index) fresh)
  in
  Machine.count_ev m Nktrace.Pte_write;
  if Pte.is_present old then begin
    let kind = mapping_kind ~level old in
    Pgdesc.remove_mapping st.descs (Pte.frame old)
      { Pgdesc.ptp; index; kind }
  end;
  if Pte.is_present fresh then begin
    let target = Pte.frame fresh in
    (* Reuse barriers: a fresh leaf through a slot with a pending lazy
       invalidation, or a new mapping of a frame that still has one,
       must flush before the new mapping becomes reachable. *)
    flush_deferred_slot st ~ptp ~index;
    flush_deferred_frame st target;
    (match Pgdesc.page_type st.descs target with
    | Pgdesc.Unused ->
        Pgdesc.set_type st.descs target
          (if Pte.is_user fresh then Pgdesc.User else Pgdesc.Outer_data);
        (* A tenant's first mapping of a free frame claims it: from
           here on, every peer's attempt to reach it is denied. *)
        if st.State.cur_domain <> 0 && Pgdesc.owner st.descs target = 0 then
          Pgdesc.set_owner st.descs target st.State.cur_domain
    | _ -> ());
    Pgdesc.add_mapping st.descs target
      { Pgdesc.ptp; index; kind = mapping_kind ~level fresh }
  end;
  if is_protection_downgrade ~old ~fresh then begin
    match entry_invalidations st ~ptp ~index ~level with
    | `Spans ((Machine.Asids _ as scope), spans)
      when defer_eligible st ~level ~old ~fresh ->
        defer_unmap st ~frame:(Pte.frame old) ~slot:(ptp, index) ~scope spans
    | inval -> (
        match batch with
        | Some acc -> accumulate acc inval
        | None -> (
            match inval with
            | `All -> issue_all st
            | `Spans (scope, spans) -> issue_spans st ~scope spans))
  end;
  Ok ()

let check_ptp (st : State.t) ptp =
  match Pgdesc.ptp_level st.descs ptp with
  | Some level -> Ok level
  | None -> Error (Nk_error.Not_a_ptp ptp)

let write_pte st ~ptp ~index pte =
  traced st span_write_pte (fun () ->
      State.with_gate st (fun () ->
          let* level = check_ptp st ptp in
          let* () = check_owner st ~op:"write_pte" ptp in
          let* () = check_pte_targets st ~ptp ~level pte in
          let* fresh = validate_and_adjust st ~level pte in
          apply_update st ~ptp ~index ~level fresh))

let write_pte_batch st updates =
  traced st span_write_pte_batch (fun () ->
      State.with_gate st (fun () ->
          (* Prefix-applied semantics: tuples before a rejected one stay
             applied; the error says exactly which tuple stopped the
             batch so the caller can resume or roll back.  Per-entry
             shootdowns coalesce into [acc] and fire together before
             the gate is left — including on the error and exception
             paths, since the applied prefix's downgrades must not stay
             cached past gate exit. *)
          let acc = { ba_alls = 0; ba_invals = [] } in
          let rec go i = function
            | [] -> Ok ()
            | (ptp, index, pte) :: rest -> (
                let item =
                  let* level = check_ptp st ptp in
                  let* () = check_owner st ~op:"write_pte" ptp in
                  let* () = check_pte_targets st ~ptp ~level pte in
                  let* fresh = validate_and_adjust st ~level pte in
                  apply_update ~batch:acc st ~ptp ~index ~level fresh
                in
                match item with
                | Ok () -> go (i + 1) rest
                | Error error -> Error (Nk_error.Batch_item { index = i; error }))
          in
          Machine.count_ev st.machine Nktrace.Pte_write_batch;
          Fun.protect
            ~finally:(fun () -> flush_batch_acc st acc)
            (fun () -> go 0 updates)))

let declare_ptp st ~level frame =
  traced st span_declare_ptp @@ fun () ->
  State.with_gate st (fun () ->
      let m = st.machine in
      if level < 1 || level > 4 then
        Error (Nk_error.Not_declarable { frame; why = "invalid paging level" })
      else if not (Phys_mem.valid_frame m.Machine.mem frame) then
        Error (Nk_error.Not_declarable { frame; why = "beyond physical memory" })
      else if State.is_nk_frame st frame then
        Error (Nk_error.Not_declarable { frame; why = "nested-kernel-owned" })
      else
        match Pgdesc.page_type st.descs frame with
        | Pgdesc.Ptp _ -> Error (Nk_error.Already_declared frame)
        | Pgdesc.Nk_code | Pgdesc.Nk_data | Pgdesc.Nk_stack
        | Pgdesc.Protected_data | Pgdesc.Outer_code ->
            Error (Nk_error.Not_declarable { frame; why = "protected page type" })
        | Pgdesc.Unused | Pgdesc.Outer_data | Pgdesc.User ->
            let* () = check_owner st ~op:"declare_ptp" frame in
            if Pgdesc.table_links st.descs frame <> [] then
              Error
                (Nk_error.Not_declarable { frame; why = "still linked in a page table" })
            else if List.length (Pgdesc.data_maps st.descs frame) > 1 then
              Error
                (Nk_error.Not_declarable
                   { frame; why = "mapped beyond the direct map" })
            else begin
              (* Reuse barrier: a pending lazy invalidation on this
                 frame would be a stale user-writable alias to the
                 about-to-be PTP — flush it before protecting. *)
              flush_deferred_frame st frame;
              (* Write-protect every existing mapping (the direct-map
                 leaf) — I5.  A failed write must abort the whole
                 declaration: proceeding would register a PTP the
                 outer kernel still has a writable alias to. *)
              let rec protect = function
                | [] -> Ok ()
                | (mp : Pgdesc.mapping) :: rest ->
                    let e =
                      Page_table.get_entry m.Machine.mem ~ptp:mp.ptp
                        ~index:mp.index
                    in
                    let e' = Pte.set_nx (Pte.set_writable e false) true in
                    let* () =
                      hw_result
                        (Machine.kwrite_u64 m
                           (State.entry_va_of_pte ~ptp:mp.ptp ~index:mp.index)
                           e')
                    in
                    protect rest
              in
              let protected_ = protect (Pgdesc.data_maps st.descs frame) in
              (* Flush even on the error path: mappings downgraded
                 before the failing one must not stay cached writable.
                 Occupancy-scoped, not broadcast: the only peers that
                 need the IPI are those whose TLB still holds a (now
                 stale-writable) translation of this direct-map page,
                 and [Machine.shoot_peers]'s probe sees every ASID and
                 the globals.  A peer without one refills from the
                 already-downgraded PTE.  Broadcasting here would IPI
                 every CPU for every page-table page the outer kernel
                 ever declares — fork alone declares a handful. *)
              Machine.shootdown_page ~scope:(Machine.Asids []) m
                ~vpage:(Addr.vpage (Addr.kva_of_frame frame));
              let* () = protected_ in
              Phys_mem.zero_frame m.Machine.mem frame;
              Machine.charge m m.Machine.costs.Costs.page_zero;
              Pgdesc.set_type st.descs frame (Pgdesc.Ptp level);
              (* Declaring claims the PTP for the declaring tenant. *)
              if st.State.cur_domain <> 0 && Pgdesc.owner st.descs frame = 0
              then Pgdesc.set_owner st.descs frame st.State.cur_domain;
              Iommu.protect_frame m.Machine.iommu frame;
              Machine.count_ev m Nktrace.Declare_ptp;
              Ok ()
            end)

let remove_ptp st frame =
  traced st span_remove_ptp @@ fun () ->
  State.with_gate st (fun () ->
      let m = st.machine in
      let* level = check_ptp st frame in
      ignore level;
      let* () = check_owner st ~op:"remove_ptp" frame in
      if Cr.root_frame m.Machine.cr = frame then
        Error (Nk_error.Ptp_in_use { frame; references = 1 })
      else
        let links = Pgdesc.table_links st.descs frame in
        if links <> [] then
          Error (Nk_error.Ptp_in_use { frame; references = List.length links })
        else begin
          let present = ref 0 in
          for i = 0 to Addr.entries_per_table - 1 do
            if Pte.is_present (Page_table.get_entry m.Machine.mem ~ptp:frame ~index:i)
            then incr present
          done;
          if !present > 0 then
            Error (Nk_error.Ptp_in_use { frame; references = !present })
          else begin
            (* Hand the page back to the outer kernel: its direct-map
               mapping becomes writable (and stays non-executable).
               The PTE writes come first — only once they all succeed
               may the frame lose its Ptp type and IOMMU protection,
               or a half-removed PTP would be writable via DMA while
               still read-only via the direct map. *)
            let rec unprotect = function
              | [] -> Ok ()
              | (mp : Pgdesc.mapping) :: rest ->
                  let e =
                    Page_table.get_entry m.Machine.mem ~ptp:mp.ptp
                      ~index:mp.index
                  in
                  let e' = Pte.set_nx (Pte.set_writable e true) true in
                  let* () =
                    hw_result
                      (Machine.kwrite_u64 m
                         (State.entry_va_of_pte ~ptp:mp.ptp ~index:mp.index)
                         e')
                  in
                  unprotect rest
            in
            let* () = unprotect (Pgdesc.data_maps st.descs frame) in
            Pgdesc.set_type st.descs frame Pgdesc.Unused;
            (* Retiring is the release point of the declarer's claim:
               the page returns to the outer kernel's free pool, and a
               stale owner mark would deny the recycled frame to its
               next user and count as a teardown leak it is not. *)
            Pgdesc.set_owner st.descs frame 0;
            Iommu.unprotect_frame m.Machine.iommu frame;
            (* Occupancy-scoped, as declare_ptp now is: a parked peer
               still holding the read-only entry would take a spurious
               WP fault on its first write to the returned page, and
               the occupancy probe targets exactly those peers. *)
            Machine.shootdown_page ~scope:(Machine.Asids []) m
              ~vpage:(Addr.vpage (Addr.kva_of_frame frame));
            Machine.count_ev m Nktrace.Remove_ptp;
            Ok ()
          end
        end)

let load_cr0 st v =
  State.with_gate st (fun () ->
      let required = Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp in
      if v land required <> required then Error (Nk_error.Invalid_cr0 v)
      else begin
        let m = st.machine in
        m.Machine.cr.Cr.cr0 <- v;
        Machine.charge m m.Machine.costs.Costs.cr_write;
        Machine.count_ev m Nktrace.Load_cr0;
        Ok ()
      end)

(* The mov-to-CR3 instruction lives in a normally unmapped
   nested-kernel page (section 3.7): charge the PTE update and
   shootdown that map and unmap it, before the serializing CR3 write
   itself. *)
let charge_hidden_cr3_page (m : Machine.t) =
  let costs = m.Machine.costs in
  Machine.charge m ((2 * costs.Costs.mem_insn) + (2 * costs.Costs.invlpg))

(* Legacy (untagged) switch: full flush, and every cached (pcid, root)
   pairing is forgotten so later tagged switches re-flush before
   trusting their tag. *)
let switch_untagged (st : State.t) frame =
  let m = st.machine in
  charge_hidden_cr3_page m;
  m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame frame;
  Machine.charge m m.Machine.costs.Costs.cr_write;
  Machine.flush_full m;
  (* Forgetting a (pcid, root) pairing is only sound if no CPU still
     holds entries under that tag: [scope_of_targets] keys downgrade
     shootdowns on this table, so a peer's surviving entries under a
     forgotten tag would never be targeted again and could serve a
     stale translation indefinitely.  Shoot every dropped tag down on
     all CPUs before forgetting it; only an unchanged 0 -> [frame]
     binding may be kept quietly. *)
  Hashtbl.iter
    (fun pcid root ->
      if not (pcid = 0 && root = frame) then
        Machine.shootdown_asid m ~asid:pcid)
    st.State.pcid_roots;
  Hashtbl.reset st.State.pcid_roots;
  Hashtbl.replace st.State.pcid_roots 0 frame;
  Machine.note_asid_active m;
  Machine.count_ev m Nktrace.Load_cr3

let load_cr3 st frame =
  State.with_gate st (fun () ->
      match Pgdesc.ptp_level st.descs frame with
      | Some 4 ->
          let* () = check_owner st ~op:"load_cr3" frame in
          switch_untagged st frame;
          Ok ()
      | Some _ | None -> Error (Nk_error.Invalid_cr3 frame))

let load_cr3_pcid st ~pcid frame =
  State.with_gate st (fun () ->
      let m = st.machine in
      if pcid < 0 || pcid > Cr.max_pcid then Error (Nk_error.Invalid_pcid pcid)
      else
        match Pgdesc.ptp_level st.descs frame with
        | Some 4 ->
            let* () = check_owner st ~op:"load_cr3" frame in
            if not (Cr.pcid_enabled m.Machine.cr) then begin
              (* Tag is inert without CR4.PCIDE: legacy semantics. *)
              switch_untagged st frame;
              Ok ()
            end
            else begin
              charge_hidden_cr3_page m;
              m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame ~pcid;
              Machine.charge m m.Machine.costs.Costs.cr_write;
              (match Hashtbl.find_opt st.State.pcid_roots pcid with
              | Some bound when bound = frame ->
                  (* Clean pair — the no-flush fast path.  Safe because
                     every protection downgrade shoots stale
                     translations out of {e all} ASIDs, so entries
                     cached under this tag can never be more permissive
                     than the tree they were filled from. *)
                  ()
              | _ ->
                  (* First use or rebind of the tag: entries cached
                     under it belong to another address space and must
                     die before this one runs — on {e every} CPU, not
                     just this one.  A parked peer still holding
                     entries under the tag would otherwise serve them
                     (audited against the wrong tree) when it next
                     runs this ASID. *)
                  Machine.shootdown_asid m ~asid:pcid;
                  Hashtbl.replace st.State.pcid_roots pcid frame);
              Machine.note_asid_active m;
              Machine.count_ev m Nktrace.Load_cr3_pcid;
              Ok ()
            end
        | Some _ | None -> Error (Nk_error.Invalid_cr3 frame))

let load_cr4 st v =
  State.with_gate st (fun () ->
      let m = st.machine in
      let required = Cr.cr4_smep lor Cr.cr4_pae in
      let clears_pcide =
        Cr.pcid_enabled m.Machine.cr && v land Cr.cr4_pcide = 0
      in
      if v land required <> required then Error (Nk_error.Invalid_cr4 v)
      else if clears_pcide && Cr.pcid m.Machine.cr <> 0 then
        (* Hardware #GPs a mov to CR4 that clears PCIDE while CR3[11:0]
           is nonzero — and for good reason: the ASID tag would collapse
           to 0 mid-address-space, so the TLB would start serving
           entries filled for whatever root PCID 0 last named.  Model
           the fault as a rejected load. *)
        Error (Nk_error.Invalid_cr4 v)
      else begin
        (* Clearing PCIDE (legally, with PCID 0 active) invalidates all
           non-global entries on this logical CPU, as hardware does. *)
        if clears_pcide then Machine.flush_full m;
        m.Machine.cr.Cr.cr4 <- v;
        Machine.charge m m.Machine.costs.Costs.cr_write;
        Machine.count_ev m Nktrace.Load_cr4;
        Ok ()
      end)

let load_efer st v =
  State.with_gate st (fun () ->
      let required = Cr.efer_nx lor Cr.efer_lme in
      if v land required <> required then Error (Nk_error.Invalid_efer v)
      else begin
        let m = st.machine in
        m.Machine.cr.Cr.efer <- v;
        Machine.charge m m.Machine.costs.Costs.wrmsr;
        Machine.count_ev m Nktrace.Load_efer;
        Ok ()
      end)
