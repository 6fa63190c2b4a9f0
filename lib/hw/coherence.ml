(* Differential TLB-coherence oracle.

   The nested kernel's security argument assumes that after any
   protection downgrade no CPU retains a stale, more-permissive
   translation.  This module checks that assumption mechanically: an
   independent reference translator walks the live page tables with no
   caching whatsoever, and every cached TLB entry — on the active CPU
   and on every parked peer — is cross-checked against it.

   Only stale-AND-MORE-PERMISSIVE entries are violations: an entry
   that is writable, user-accessible or executable where the tree says
   otherwise, maps a different frame, or exists where the tree has no
   mapping at all.  A stale but *less* permissive entry (e.g. still
   read-only after an upgrade) merely causes a spurious fault and is
   the software's job to tolerate, exactly as on hardware, so it is
   not flagged.  The global bit is likewise advisory (it only affects
   flush behaviour, not access rights) and is not compared. *)

type walk = {
  w_frame : Addr.frame;
  w_writable : bool;
  w_user : bool;
  w_nx : bool;
  w_global : bool;
}

type violation = {
  v_cpu : int;
  v_asid : int option;
  v_vpage : int;
  v_cached : Tlb.entry;
  v_walked : walk option;
  v_why : string;
  v_op : string;
}

exception Violation of violation list

(* Deliberately NOT Page_table.walk: the oracle must not share code
   with the fast path it is auditing.  Same accumulation rules as the
   hardware walk — writable/user AND down the levels, NX ORs in — and
   a 2 MiB leaf resolves to the constituent 4 KiB frame.

   The result is one packed word in the {!Pte} bit layout (0 =
   unmapped; P is always set on a successful walk, so 0 is never
   ambiguous): the oracle fires after {e every} MMU access on a
   fuzzing run, so the walk itself must not allocate.  The [walk]
   record is only built for violation reports. *)
let reference_translate_packed mem ~root va =
  let rec step ptp level ~writable ~user ~nx =
    if not (Phys_mem.valid_frame mem ptp) then 0
    else
      let index = Addr.index_at_level ~level va in
      let pte = Phys_mem.read_table_word mem ~frame:ptp ~index in
      if not (Pte.is_present pte) then 0
      else
        let writable = writable && Pte.is_writable pte in
        let user = user && Pte.is_user pte in
        let nx = nx || Pte.is_nx pte in
        if level = 1 || (level = 2 && Pte.is_large pte) then
          let frame =
            if level = 2 then Pte.frame pte + (Addr.vpage va land 0x1ff)
            else Pte.frame pte
          in
          Tlb.pack_entry ~frame ~writable ~user ~nx
            ~global:(Pte.is_global pte)
        else step (Pte.frame pte) (level - 1) ~writable ~user ~nx
  in
  if Phys_mem.valid_frame mem root then
    step root 4 ~writable:true ~user:true ~nx:false
  else 0

let walk_of_packed w =
  {
    w_frame = Tlb.packed_frame w;
    w_writable = Tlb.packed_writable w;
    w_user = Tlb.packed_user w;
    w_nx = Tlb.packed_nx w;
    w_global = Tlb.packed_global w;
  }

let reference_translate mem ~root va =
  let w = reference_translate_packed mem ~root va in
  if w = 0 then None else Some (walk_of_packed w)

(* Both sides in the packed layout; returns the violation string only
   when the cached entry is stale AND more permissive. *)
let stale_reason_packed cached walked =
  if walked = 0 then Some "cached translation for an unmapped VA"
  else if Tlb.packed_frame cached <> Tlb.packed_frame walked then
    Some "cached frame differs from walk"
  else if Tlb.packed_writable cached && not (Tlb.packed_writable walked) then
    Some "stale writable bit"
  else if Tlb.packed_user cached && not (Tlb.packed_user walked) then
    Some "stale user bit"
  else if (not (Tlb.packed_nx cached)) && Tlb.packed_nx walked then
    Some "stale executable permission"
  else None

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<h>cpu%d %s vpage=%#x after %s: %s; cached frame=%#x w=%b u=%b nx=%b, walk=%s@]"
    v.v_cpu
    (match v.v_asid with
    | None -> "global"
    | Some a -> Printf.sprintf "asid=%d" a)
    v.v_vpage v.v_op v.v_why v.v_cached.Tlb.frame v.v_cached.Tlb.writable
    v.v_cached.Tlb.user v.v_cached.Tlb.nx
    (match v.v_walked with
    | None -> "unmapped"
    | Some w ->
        Printf.sprintf "frame=%#x w=%b u=%b nx=%b" w.w_frame w.w_writable
          w.w_user w.w_nx)

let () =
  Printexc.register_printer (function
    | Violation vs ->
        Some
          (Format.asprintf "Coherence.Violation [@[<v>%a@]]"
             (Format.pp_print_list pp_violation)
             vs)
    | _ -> None)

(* Full audit: every live entry of every TLB against the live trees.
   [root_of_asid] resolves the root a non-active ASID's entries were
   filled from (the vMMU's pcid bindings); an ASID it cannot resolve
   is unreachable — rebinding the PCID flushes it first — so its
   entries are skipped.  Global entries hit under every ASID; kernel
   mappings are identical in every root, so the active root audits
   them. *)
let no_deferred ~vpage:_ (_ : Tlb.entry) = false

let check_machine ?(root_of_asid = fun _ -> None)
    ?(deferred = no_deferred) ?(op = "audit") (m : Machine.t) =
  if not (Cr.paging_enabled m.Machine.cr) then []
  else begin
    let active_root = Cr.root_frame m.Machine.cr in
    let active_asid = Cr.asid m.Machine.cr in
    let violations = ref [] in
    let check_tlb ~cpu ~active tlb =
      (* Packed iteration: the clean path (no stale entry) touches no
         heap at all — entries, walks and comparisons are all single
         ints; records are built only to report a violation or consult
         the [deferred] exemption. *)
      Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage p ->
          let root =
            if asid = -1 then active_root
            else if active && asid = active_asid then active_root
            else match root_of_asid asid with Some r -> r | None -> -1
          in
          if root >= 0 then
            let walked =
              reference_translate_packed m.Machine.mem ~root
                (vpage * Addr.page_size)
            in
            match stale_reason_packed p walked with
            | None -> ()
            (* A pending lazy invalidation is a declared, bounded
               staleness: the nested kernel queued the flush and
               guarantees it fires before the frame is reused.  The
               exemption is as narrow as the queue entry — (vpage,
               old frame) must both match. *)
            | Some _ when deferred ~vpage (Tlb.unpack p) -> ()
            | Some why ->
                violations :=
                  {
                    v_cpu = cpu;
                    v_asid = (if asid = -1 then None else Some asid);
                    v_vpage = vpage;
                    v_cached = Tlb.unpack p;
                    v_walked =
                      (if walked = 0 then None else Some (walk_of_packed walked));
                    v_why = why;
                    v_op = op;
                  }
                  :: !violations)
    in
    check_tlb ~cpu:m.Machine.cur_cpu ~active:true m.Machine.tlb;
    let ids = m.Machine.peer_ids in
    Array.iteri
      (fun i tlb ->
        check_tlb ~cpu:(if i < Array.length ids then ids.(i) else -1) ~active:false tlb)
      m.Machine.peer_tlbs;
    List.rev !violations
  end

(* Targeted audit of the one translation the MMU just served: O(1), so
   it can run after every access without making the fuzzer quadratic. *)
let check_va ?(deferred = no_deferred) ?(op = "access") (m : Machine.t) va =
  if not (Cr.paging_enabled m.Machine.cr) then []
  else
    let vpage = Addr.vpage va in
    let p = Tlb.peek_packed m.Machine.tlb ~asid:(Cr.asid m.Machine.cr) ~vpage in
    if p = Tlb.miss then []
    else
      let walked =
        reference_translate_packed m.Machine.mem
          ~root:(Cr.root_frame m.Machine.cr) va
      in
      match stale_reason_packed p walked with
      | None -> []
      | Some _ when deferred ~vpage (Tlb.unpack p) -> []
      | Some why ->
          [
            {
              v_cpu = m.Machine.cur_cpu;
              v_asid =
                (if Tlb.packed_global p then None
                 else Some (Cr.asid m.Machine.cr));
              v_vpage = vpage;
              v_cached = Tlb.unpack p;
              v_walked =
                (if walked = 0 then None else Some (walk_of_packed walked));
              v_why = why;
              v_op = op;
            };
          ]

(* Machine-wide mutation stamp: the sum of the monotone phys-memory
   store count, every TLB's insert and flush counts, and the peer-TLB
   count.  Every component only grows, so the sum is itself monotone
   and changes exactly when some component does.  An unchanged stamp
   proves no PTE changed (no store of any kind happened) and no TLB's
   live set changed (no fill, no flush; lazy tombstone reclamation
   never changes liveness). *)
let mutation_stamp (m : Machine.t) =
  let s =
    ref
      (Phys_mem.writes m.Machine.mem
      + Tlb.inserts m.Machine.tlb
      + Tlb.flushes m.Machine.tlb)
  in
  let peers = m.Machine.peer_tlbs in
  for i = 0 to Array.length peers - 1 do
    s := !s + Tlb.inserts peers.(i) + Tlb.flushes peers.(i)
  done;
  !s + Array.length peers

(* Clean verdicts the oracle reuses, one record per CPU id.  A clean
   verdict can only be invalidated by a store (possibly to a PTE), a
   TLB fill or flush (the protocol flushes before every rebinding, so
   resolver changes are always preceded by one), a root/ASID switch,
   or a CPU coming online, and every one of those moves the stamp or
   the stored registers.  [audit_*] hold the stamp, root and ASID of
   the CPU's last clean full audit: while they match, the full audit
   and every targeted check are no-ops.  [va_*] hold the same for its
   last clean targeted check, plus the page: while they match, a
   targeted check of that page would compare the same TLB entry
   against the same tables.  The records are per CPU because a CPU
   switch swaps TLBs without moving the stamp's sum.  Only verdicts
   reached with paging on and no deferred exemption are kept: a
   deferred exemption is only as durable as the queue entry behind
   it. *)
type memo = {
  mutable audit_stamp : int;
  mutable audit_root : int;
  mutable audit_asid : int;
  mutable va_stamp : int;
  mutable va_root : int;
  mutable va_asid : int;
  mutable va_page : int;
}

let no_memo () =
  {
    audit_stamp = min_int;
    audit_root = -1;
    audit_asid = -1;
    va_stamp = min_int;
    va_root = -1;
    va_asid = -1;
    va_page = -1;
  }

let enable ?root_of_asid ?deferred ?on_violation (m : Machine.t) =
  let checking = ref false in
  let memos = ref (Array.init 8 (fun _ -> no_memo ())) in
  let memo cpu =
    let a = !memos in
    if cpu < Array.length a then a.(cpu)
    else begin
      let n = ref (2 * Array.length a) in
      while cpu >= !n do
        n := !n * 2
      done;
      memos :=
        Array.init !n (fun i -> if i < Array.length a then a.(i) else no_memo ());
      (!memos).(cpu)
    end
  in
  let exempt = ref false in
  let deferred =
    match deferred with
    | None -> None
    | Some d ->
        Some
          (fun ~vpage e ->
            let r = d ~vpage e in
            if r then exempt := true;
            r)
  in
  let hook ~op ~va =
    (* Mid-gate the PTE write and its shootdown are two steps; the
       window between them is legitimately incoherent, and the gate
       exit fires a full check.  The guard also stops the oracle from
       auditing its own resolver's reads. *)
    if (not !checking) && not m.Machine.in_nested_kernel then begin
      let c = memo m.Machine.cur_cpu in
      let stamp = mutation_stamp m in
      let root = Cr.root_frame m.Machine.cr in
      let asid = Cr.asid m.Machine.cr in
      let vpage = if va >= 0 then Addr.vpage va else -1 in
      if
        not
          ((c.audit_stamp = stamp && c.audit_root = root && c.audit_asid = asid)
          || va >= 0
             && c.va_stamp = stamp
             && c.va_root = root
             && c.va_asid = asid
             && c.va_page = vpage)
      then begin
        checking := true;
        (* Hand-rolled Fun.protect: the hook fires after every access
           on a fuzzing run, and the two closures Fun.protect builds
           per call are measurable there. *)
        (try
           exempt := false;
           (let vs =
              if va >= 0 then check_va ?deferred ~op m va
              else check_machine ?root_of_asid ?deferred ~op m
            in
            if vs = [] && (not !exempt) && Cr.paging_enabled m.Machine.cr then
              if va >= 0 then begin
                c.va_stamp <- stamp;
                c.va_root <- root;
                c.va_asid <- asid;
                c.va_page <- vpage
              end
              else begin
                c.audit_stamp <- stamp;
                c.audit_root <- root;
                c.audit_asid <- asid
              end;
            if vs <> [] then
              match on_violation with
              | Some f -> f vs
              | None -> raise (Violation vs));
           checking := false
         with e ->
           checking := false;
           raise e)
      end
    end
  in
  m.Machine.coherence_hook <- Some hook

let disable (m : Machine.t) = m.Machine.coherence_hook <- None
