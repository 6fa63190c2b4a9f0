type ring = Supervisor | User

type ok = { pa : Addr.pa; tlb_hit : bool }

(* Permission rules (paper section 3.2): a user access to a
   supervisor page always faults; a user write additionally needs RW;
   a supervisor write to a read-only page faults iff CR0.WP; fetch
   from NX faults when EFER.NX; supervisor fetch from a user page
   faults when CR4.SMEP.  Every permission failure produces the same
   present-page fault, so evaluation order is immaterial. *)

(* The allocation-free translation path the machine's steady state
   runs on.  A non-negative result is [(pa lsl 1) lor hit] (bit 0 set
   iff the TLB served the translation); a negative result means the
   access faulted and the fault value was stored in [fault].  The only
   allocations are on the fault paths and inside a fill that actually
   walks the tree — a steady-state hit touches nothing but the packed
   TLB word. *)
let fault_none = Fault.General_protection "no fault"

let access_fast mem cr tlb ~ring ~kind va ~(fault : Fault.t ref) =
  if not (Cr.paging_enabled cr) then
    (* Real-address-style access: va is pa, no protection whatsoever. *)
    if Phys_mem.valid_pa mem va then va lsl 1
    else begin
      fault := Fault.General_protection "physical access out of range";
      -1
    end
  else begin
    let vpage = Addr.vpage va in
    let asid = Cr.asid cr in
    let p0 = Tlb.lookup_packed tlb ~asid ~vpage in
    let p, hit =
      if p0 <> Tlb.miss then (p0, 1)
      else begin
        Tlb.record_miss tlb;
        match Page_table.walk mem ~root:(Cr.root_frame cr) va with
        | Page_table.Not_mapped _ -> (Tlb.miss, 0)
        | Page_table.Mapped w ->
            (* A 2 MiB leaf covers 512 consecutive virtual pages; cache
               the one page we touched. *)
            let frame =
              if w.level = 2 then w.frame + (vpage land 0x1ff) else w.frame
            in
            let p =
              Tlb.pack_entry ~frame ~writable:w.writable ~user:w.user ~nx:w.nx
                ~global:w.global
            in
            Tlb.insert_packed tlb ~asid ~vpage p;
            (p, 0)
      end
    in
    if p = Tlb.miss then begin
      fault := Fault.page_fault ~user:(ring = User) ~present:false va kind;
      -1
    end
    else
      let user_mode = ring = User in
      (* Same decision table as [check_perms], on the packed bits. *)
      let ok =
        match (kind : Fault.access_kind) with
        | Read -> (not user_mode) || Tlb.packed_user p
        | Write ->
            if user_mode then Tlb.packed_user p && Tlb.packed_writable p
            else Tlb.packed_writable p || not (Cr.wp_enabled cr)
        | Exec ->
            (not (Tlb.packed_nx p && Cr.nx_enabled cr))
            && (if user_mode then Tlb.packed_user p
                else not (Tlb.packed_user p && Cr.smep_enabled cr))
      in
      if not ok then begin
        fault := Fault.page_fault ~user:user_mode ~present:true va kind;
        -1
      end
      else
        let pa =
          Addr.pa_of_frame (Tlb.packed_frame p) lor (va land (Addr.page_size - 1))
        in
        if Phys_mem.valid_pa mem pa then (pa lsl 1) lor hit
        else begin
          fault := Fault.General_protection "translated pa out of range";
          -1
        end
  end

(* Record-result wrapper over the packed path, for tests and cold
   callers that want the [result] type. *)
let access mem cr tlb ~ring ~kind va =
  let fault = ref fault_none in
  let r = access_fast mem cr tlb ~ring ~kind va ~fault in
  if r >= 0 then Ok { pa = r lsr 1; tlb_hit = r land 1 = 1 } else Error !fault
