open Nkhw

let ( let* ) = Result.bind

(* First-class tenant domains above the one nested kernel (ROADMAP
   item 5): the nk layer is the only holder of the ownership map, the
   entry tokens, and the inter-tenant pipes, so everything a tenant can
   do to a peer goes through a mediated, gate-crossing operation here
   or in {!Vmmu} — and is denied with a typed error when it crosses
   the ownership lattice. *)

let bad domain why = Error (Nk_error.Bad_domain { domain; why })

let current (st : State.t) = st.State.cur_domain

let denials (st : State.t) domain =
  match State.find_domain st domain with
  | Some d -> d.State.dom_denials
  | None -> 0

let live (st : State.t) domain = State.domain_live st domain

let create (st : State.t) =
  State.with_gate st (fun () ->
      if st.State.cur_domain <> 0 then
        bad st.State.cur_domain "only the host may create domains"
      else begin
        let id = st.State.next_domain in
        st.State.next_domain <- id + 1;
        let token = State.token_of_id id in
        Hashtbl.replace st.State.domains id
          {
            State.dom_id = id;
            dom_token = token;
            dom_live = true;
            dom_denials = 0;
            dom_policies = None;
          };
        Machine.count_ev st.State.machine Nktrace.Domain_create;
        Ok (id, token)
      end)

let set_policies (st : State.t) ~domain names =
  State.with_gate st (fun () ->
      if st.State.cur_domain <> 0 then
        bad st.State.cur_domain "only the host may set domain policies"
      else
        match State.find_domain st domain with
        | Some d when d.State.dom_live ->
            d.State.dom_policies <- names;
            Ok ()
        | Some _ -> bad domain "domain is dead"
        | None -> bad domain "unknown domain")

(* Switch the domain mediated operations run on behalf of.  Entering
   the host needs no token (the host never handed one out); entering a
   tenant requires the token [create] returned — a forged or stale
   token is a counted denial, exactly like an ownership breach. *)
let enter (st : State.t) ~domain ~token =
  State.with_gate st (fun () ->
      if domain = 0 then begin
        st.State.cur_domain <- 0;
        Ok ()
      end
      else
        match State.find_domain st domain with
        | Some d when d.State.dom_live && d.State.dom_token = token ->
            st.State.cur_domain <- domain;
            Machine.count_ev st.State.machine Nktrace.Domain_enter;
            Ok ()
        | Some d when d.State.dom_live ->
            State.count_denial ~op:"enter" st;
            bad domain "entry token mismatch"
        | Some _ -> bad domain "domain is dead"
        | None -> bad domain "unknown domain")

(* Claim an address-space tree for a tenant: the root and every
   user-half page-table page below it.  Kernel-half links (slots
   256..511) stay host-owned — they are the shared direct map.  Leaf
   data frames are not claimed here: shared (e.g. COW) frames must
   stay reachable by their other users, and a tenant claims data
   frames naturally as it maps fresh ones.  Host-only, one-time setup. *)
let adopt_tree (st : State.t) ~domain ~root =
  State.with_gate st (fun () ->
      if st.State.cur_domain <> 0 then
        bad st.State.cur_domain "only the host may adopt a tree"
      else if domain = 0 || not (State.domain_live st domain) then
        bad domain "not a live tenant domain"
      else
        match Pgdesc.ptp_level st.descs root with
        | Some 4 ->
            let mem = st.State.machine.Machine.mem in
            let rec claim frame level =
              Pgdesc.set_owner st.descs frame domain;
              if level > 1 then begin
                let limit =
                  if level = 4 then (Addr.entries_per_table / 2) - 1
                  else Addr.entries_per_table - 1
                in
                for index = 0 to limit do
                  let pte = Page_table.get_entry mem ~ptp:frame ~index in
                  if
                    Pte.is_present pte
                    && (not (level = 2 && Pte.is_large pte))
                    && Pgdesc.is_ptp st.descs (Pte.frame pte)
                  then claim (Pte.frame pte) (level - 1)
                done
              end
            in
            claim root 4;
            Ok ()
        | Some _ | None -> Error (Nk_error.Invalid_cr3 root))

(* Tear a tenant down: drain its deferred unmaps (no tolerated
   staleness may survive the tenant), dissolve its pipes, reclaim any
   frames still carrying its owner mark (counted and returned — a
   nonzero count means the outer kernel leaked), and mark it dead so
   its token stops working.  The host or the domain itself may call. *)
let destroy (st : State.t) ~domain =
  State.with_gate st (fun () ->
      if st.State.cur_domain <> 0 && st.State.cur_domain <> domain then begin
        State.count_denial st;
        bad st.State.cur_domain "only the host or the domain may destroy it"
      end
      else
        match State.find_domain st domain with
        | None -> bad domain "unknown domain"
        | Some d when not d.State.dom_live -> bad domain "domain already dead"
        | Some d ->
            Vmmu.flush_domain_deferred st domain;
            let stale =
              Hashtbl.fold
                (fun key (p : State.pipe) acc ->
                  if p.State.pipe_src = domain || p.State.pipe_dst = domain
                  then key :: acc
                  else acc)
                st.State.pipes []
            in
            List.iter (Hashtbl.remove st.State.pipes) stale;
            let leaked = ref 0 in
            Pgdesc.iter st.descs (fun _ desc ->
                if desc.Pgdesc.owner = domain then begin
                  incr leaked;
                  desc.Pgdesc.owner <- 0
                end);
            d.State.dom_live <- false;
            if st.State.cur_domain = domain then st.State.cur_domain <- 0;
            Machine.count_ev st.State.machine Nktrace.Domain_destroy;
            Ok !leaked)

(* --- cross-domain pipes: the only inter-tenant channel ------------- *)

let default_pipe_cap = 64

let pipe_open (st : State.t) ?(cap = default_pipe_cap) ~src ~dst () =
  State.with_gate st (fun () ->
      if st.State.cur_domain <> 0 && st.State.cur_domain <> src then
        bad st.State.cur_domain "only the host or the sender may open a pipe"
      else if not (State.domain_live st src && State.domain_live st dst) then
        bad (if State.domain_live st src then dst else src) "not live"
      else if Hashtbl.mem st.State.pipes (src, dst) then
        bad src "pipe already open"
      else begin
        Hashtbl.replace st.State.pipes (src, dst)
          {
            State.pipe_src = src;
            pipe_dst = dst;
            pipe_buf = Queue.create ();
            pipe_cap = max 1 cap;
          };
        Ok ()
      end)

let pipe_send (st : State.t) ~dst word =
  State.with_gate st (fun () ->
      let src = st.State.cur_domain in
      match Hashtbl.find_opt st.State.pipes (src, dst) with
      | None ->
          State.count_denial st;
          bad dst "no pipe from the current domain"
      | Some p ->
          if not (State.domain_live st dst) then bad dst "receiver is dead"
          else if Queue.length p.State.pipe_buf >= p.State.pipe_cap then
            Error (Nk_error.Eagain "pipe full")
          else begin
            Queue.push word p.State.pipe_buf;
            Machine.count_ev st.State.machine Nktrace.Pipe_send;
            Ok ()
          end)

let pipe_recv (st : State.t) ~src =
  State.with_gate st (fun () ->
      let dst = st.State.cur_domain in
      match Hashtbl.find_opt st.State.pipes (src, dst) with
      | None ->
          State.count_denial st;
          bad src "no pipe to the current domain"
      | Some p ->
          if Queue.is_empty p.State.pipe_buf then Ok None
          else Ok (Some (Queue.pop p.State.pipe_buf)))

(* --- mediated shootdown requests ----------------------------------- *)

(* The vMMU derives every shootdown scope itself; this is the one
   entry point where the outer kernel may {e propose} a scope (e.g.
   for its own housekeeping flushes).  The host's proposals are taken
   as-is.  A tenant's [Asids] list is checked against the clean-pair
   table: if any bound ASID whose root belongs to a live peer is
   missing from the list, the tenant is trying to shrink the flush
   below what cross-domain coherence needs — denied, counted, and
   nothing is flushed. *)
let request_shootdown (st : State.t) scope =
  State.with_gate st (fun () ->
      let m = st.State.machine in
      match scope with
      | Machine.Broadcast ->
          Machine.shootdown_all m;
          Ok ()
      | Machine.Cpuset _ when st.State.cur_domain <> 0 ->
          (* A CPU-pinned scope is the vMMU's own internal audience
             snapshot; a tenant proposing one is by construction trying
             to pick which peers get flushed — denied outright. *)
          State.count_denial ~op:"shootdown" st;
          Error
            (Nk_error.Cross_domain
               {
                 domain = st.State.cur_domain;
                 owner = 0;
                 frame = 0;
                 op = "pin shootdown cpuset";
               })
      | Machine.Cpuset _ ->
          (* Host housekeeping: over-approximate to a full broadcast
             rather than trusting the mask against future residency. *)
          Machine.shootdown_all m;
          Ok ()
      | Machine.Asids asids ->
          if st.State.cur_domain = 0 then begin
            List.iter (fun a -> Machine.shootdown_asid m ~asid:a) asids;
            Ok ()
          end
          else begin
            let shrunk =
              Hashtbl.fold
                (fun pcid root acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      let owner = Pgdesc.owner st.descs root in
                      if
                        owner <> 0
                        && owner <> st.State.cur_domain
                        && State.domain_live st owner
                        && not (List.mem pcid asids)
                      then Some (root, owner)
                      else None)
                st.State.pcid_roots None
            in
            match shrunk with
            | Some (root, owner) ->
                State.count_denial ~op:"shootdown" st;
                Error
                  (Nk_error.Cross_domain
                     {
                       domain = st.State.cur_domain;
                       owner;
                       frame = root;
                       op = "shrink shootdown scope";
                     })
            | None ->
                let* () =
                  List.fold_left
                    (fun acc a ->
                      let* () = acc in
                      match Hashtbl.find_opt st.State.pcid_roots a with
                      | Some root
                        when not (State.owner_ok st (Pgdesc.owner st.descs root))
                        ->
                          State.count_denial ~op:"shootdown" st;
                          Error
                            (Nk_error.Cross_domain
                               {
                                 domain = st.State.cur_domain;
                                 owner = Pgdesc.owner st.descs root;
                                 frame = root;
                                 op = "shootdown peer asid";
                               })
                      | _ -> Ok ())
                    (Ok ()) asids
                in
                List.iter (fun a -> Machine.shootdown_asid m ~asid:a) asids;
                Ok ()
          end)

(* Owner-release hook: the outer frame allocator reports every freed
   frame so the ownership map cannot outlive the allocation.  Not a
   gate crossing and free when no tenant ever ran (one integer
   compare). *)
let frame_released (st : State.t) f =
  if Pgdesc.owner st.descs f <> 0 then Pgdesc.set_owner st.descs f 0
