open Nkhw

type wd = {
  wd_id : int;
  wd_base : Addr.va;
  wd_size : int;
  wd_policy : Policy.t;
  mutable wd_active : bool;
  wd_from_heap : bool;
}

(* One lazily-invalidated unmap: the PTE is already gone from the tree
   but the TLB shootdown was queued instead of issued.  The record is
   the whole soundness story — it names exactly which stale cached
   translations are tolerated (old frame + the vpage spans the entry
   translated), the scope the eventual flush must use, and the slot it
   came through (so re-installing through the same slot can trigger
   the flush even when the frame never revisits the allocator). *)
type pending_flush = {
  pf_frame : Addr.frame;  (* the frame the unmapped leaf pointed at *)
  pf_slot : Addr.frame * int;  (* (ptp, index) the unmap went through *)
  pf_scope : Machine.shootdown_scope;
  pf_spans : (int * int) list;  (* (vpage, count) still possibly cached *)
  pf_domain : int;  (* domain whose unmap was deferred (teardown drain) *)
}

(* A tenant domain above the one nested kernel.  Domain 0 is the host:
   always live, never registered here.  The entry token is the
   capability the outer kernel must present to run mediated operations
   on the domain's behalf; it is handed out exactly once, at create. *)
type domain = {
  dom_id : int;
  dom_token : int;
  mutable dom_live : bool;
  mutable dom_denials : int;  (* cross-domain rejections attributed to it *)
  mutable dom_policies : string list option;
      (* write-protection policies the domain may declare; None = any *)
}

(* A gate-mediated cross-domain pipe: the only inter-tenant channel.
   Bounded; words only, so no shared memory ever crosses domains. *)
type pipe = {
  pipe_src : int;
  pipe_dst : int;
  pipe_buf : int Queue.t;
  pipe_cap : int;
}

type t = {
  machine : Machine.t;
  gate : Gate.t;
  descs : Pgdesc.t;
  heap : Pheap.t;
  root_pml4 : Addr.frame;
  idt_va : Addr.va;
  nk_first_frame : Addr.frame;
  nk_frame_count : int;
  write_descriptors : (int, wd) Hashtbl.t;
  pcid_roots : (int, Addr.frame) Hashtbl.t;
  deferred_frames : (Addr.frame, pending_flush list) Hashtbl.t;
  deferred_slots : (Addr.frame * int, Addr.frame) Hashtbl.t;
  mutable deferred_count : int;
  mutable next_wd_id : int;
  mutable lock_held : bool;
  mutable denied_writes : int;
  (* Scratch for the vMMU's shootdown scope derivation (the (root,
     base-vpage) pairs a PTP is reachable at): sized to the
     max-shootdown-positions bound of 8, filled in place on every
     downgrade instead of consing a fresh pair list per write_pte.
     Gate-serialized ([lock_held]), so one scratch per State is
     enough. *)
  sc_roots : int array;
  sc_bases : int array;
  domains : (int, domain) Hashtbl.t;
  pipes : (int * int, pipe) Hashtbl.t;
  mutable next_domain : int;
  mutable cur_domain : int;
}

(* Deterministic entry tokens (Knuth multiplicative hash of the id):
   unguessable only in the model's sense -- a tenant that never saw the
   token cannot present it, and the attack suite checks a forged one is
   rejected. *)
let token_of_id id = id * 2654435761 land 0x3fffffff

let find_domain t id = Hashtbl.find_opt t.domains id

let domain_live t id =
  id = 0
  || match find_domain t id with Some d -> d.dom_live | None -> false

(* The ownership lattice: the host (domain 0) may touch anything;
   host-owned (shared) frames are usable by every domain; a tenant may
   otherwise only touch its own frames. *)
let owner_ok t owner =
  t.cur_domain = 0 || owner = 0 || owner = t.cur_domain

let count_denial ?op t =
  (match find_domain t t.cur_domain with
  | Some d -> d.dom_denials <- d.dom_denials + 1
  | None -> ());
  Machine.count_ev t.machine Nktrace.Xdom_denied;
  let tr = t.machine.Machine.trace in
  match op with
  | Some op when Nktrace.enabled tr -> Nktrace.mark tr ("xdom_denied_" ^ op)
  | _ -> ()

let is_nk_frame t f =
  f >= t.nk_first_frame && f < t.nk_first_frame + t.nk_frame_count

let crossing_error e =
  Nk_error.Gate_failure (Format.asprintf "%a" Gate.pp_crossing_error e)

let with_gate t body =
  if t.lock_held then Error Nk_error.Reentrant_call
  else begin
    t.lock_held <- true;
    match Gate.enter t.machine t.gate with
    | Error e ->
        t.lock_held <- false;
        Error (crossing_error e)
    | Ok () ->
        let result =
          match body () with
          | result -> result
          | exception exn ->
              (* Never leave the machine with WP clear. *)
              ignore (Gate.exit_ t.machine t.gate);
              t.lock_held <- false;
              raise exn
        in
        let exit_result = Gate.exit_ t.machine t.gate in
        t.lock_held <- false;
        (* The gate body may leave the TLBs transiently incoherent
           between a PTE write and its shootdown; by exit every
           downgrade must have been flushed, so audit here. *)
        Machine.coherence_check t.machine ~op:"gate_exit";
        (match exit_result with
        | Ok () -> result
        | Error e -> ( match result with Error _ -> result | Ok _ -> Error (crossing_error e)))
  end

(* Is a cached TLB entry one of the tolerated stale translations?  As
   narrow as the queue: the cached frame must be the unmapped frame
   and the vpage must fall inside one of its recorded spans.  The
   coherence oracle's [deferred] exemption is exactly this predicate. *)
let is_deferred t ~vpage (e : Tlb.entry) =
  Hashtbl.length t.deferred_frames > 0
  && (match Hashtbl.find_opt t.deferred_frames e.Tlb.frame with
     | None -> false
     | Some recs ->
         List.exists
           (fun r ->
             List.exists
               (fun (vp, n) -> vpage >= vp && vpage < vp + n)
               r.pf_spans)
           recs)

let deferred_live t = t.deferred_count

let register_wd t wd = Hashtbl.replace t.write_descriptors wd.wd_id wd
let find_wd t id = Hashtbl.find_opt t.write_descriptors id

let entry_va_of_pte ~ptp ~index =
  Addr.kva_of_pa (Page_table.entry_pa ~ptp ~index)
