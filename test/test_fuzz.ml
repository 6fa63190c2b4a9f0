open Nkhw
open Outer_kernel

(* Invariant fuzzing: drive random sequences of vMMU and
   write-protection operations against a live nested kernel, then
   check that (a) every invariant I1..I13 still holds, (b) no
   frame the descriptors call protected is writable from outer-kernel
   context, and (c) — with the differential TLB-coherence oracle
   installed — no CPU ever caches a translation more permissive than
   the live page tables say, which turns the invariant fuzzer into a
   state-machine differential tester.  The op stream includes CPU
   migrations and direct-map touches so parked-peer TLBs carry live
   entries for the oracle to audit. *)

type op =
  | Declare of int * int (* frame offset, level *)
  | Write_pte of int * int * int * bool (* ptp offset, index, target offset, writable *)
  | Write_large of int * int * int * bool
    (* ptp offset, index, aligned-span selector, writable: a 2 MiB leaf *)
  | Clear_pte of int * int
  | Remove of int
  | Alloc of int
  | Write_prot of int * int (* descriptor index, offset *)
  | Free of int
  | Load_cr0_bad
  | Load_cr4_bad
  | Batch of (int * int * int * bool) list
  | Install_code of int * bool (* frame offset, hostile? *)
  | Retire_code of int
  | Emulate of int (* byte offset into a protected frame *)
  | Migrate of int (* activate another CPU and warm its TLB *)
  | Touch of int (* read a frame's direct-map page, caching an entry *)

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun f l -> Declare (f, l)) (int_range 0 15) (int_range 1 4);
        map
          (fun (((p, i), t), w) -> Write_pte (p, i, t, w))
          (pair (pair (pair (int_range 0 15) (int_range 0 30)) (int_range 0 30)) bool);
        map
          (fun (((p, i), t), w) -> Write_large (p, i, t, w))
          (pair (pair (pair (int_range 0 15) (int_range 0 7)) (int_range 0 1)) bool);
        map2 (fun p i -> Clear_pte (p, i)) (int_range 0 15) (int_range 0 30);
        map (fun f -> Remove f) (int_range 0 15);
        map (fun s -> Alloc (8 + s)) (int_range 0 200);
        map2 (fun d o -> Write_prot (d, o)) (int_range 0 7) (int_range 0 63);
        map (fun d -> Free d) (int_range 0 7);
        return Load_cr0_bad;
        return Load_cr4_bad;
        map
          (fun l -> Batch l)
          (list_size (int_range 1 8)
             (quad (int_range 0 15) (int_range 0 30) (int_range 0 30) bool));
        map2 (fun f h -> Install_code (f, h)) (int_range 16 23) bool;
        map (fun f -> Retire_code f) (int_range 16 23);
        map (fun off -> Emulate off) (int_range 0 4088);
        map (fun c -> Migrate c) (int_range 0 2);
        map (fun f -> Touch f) (int_range 0 30);
      ])

let apply ?smp nk ~f0 descriptors op =
  let module Api = Nested_kernel.Api in
  match op with
  | Declare (f, l) -> ignore (Api.declare_ptp nk ~level:l (f0 + f))
  | Write_pte (p, i, t, w) ->
      let flags = if w then Pte.user_rw_nx else Pte.user_ro_nx in
      ignore (Api.write_pte nk ~ptp:(f0 + p) ~index:i (Pte.make ~frame:(f0 + t) flags))
  | Clear_pte (p, i) -> ignore (Api.write_pte nk ~ptp:(f0 + p) ~index:i Pte.empty)
  | Remove f -> ignore (Api.remove_ptp nk (f0 + f))
  | Alloc size -> (
      match Api.nk_alloc nk ~size Nested_kernel.Policy.unrestricted with
      | Ok (wd, va) ->
          if Array.length !descriptors < 8 then
            descriptors := Array.append !descriptors [| (wd, va, size) |]
      | Error _ -> ())
  | Write_prot (d, off) ->
      if d < Array.length !descriptors then begin
        let wd, va, size = !descriptors.(d) in
        if off < size then
          ignore (Api.nk_write nk wd ~dest:(va + off) (Bytes.make 1 'f'))
      end
  | Free d ->
      if d < Array.length !descriptors then begin
        let wd, _, _ = !descriptors.(d) in
        ignore (Api.nk_free nk wd)
      end
  | Load_cr0_bad ->
      let m = Api.machine nk in
      ignore (Api.load_cr0 nk (m.Machine.cr.Cr.cr0 land lnot Cr.cr0_wp))
  | Load_cr4_bad ->
      let m = Api.machine nk in
      ignore (Api.load_cr4 nk (m.Machine.cr.Cr.cr4 land lnot Cr.cr4_smep))
  | Batch updates ->
      let module Api = Nested_kernel.Api in
      ignore
        (Api.write_pte_batch nk
           (List.map
              (fun (p, i, t, w) ->
                let flags = if w then Pte.user_rw_nx else Pte.user_ro_nx in
                (f0 + p, i, Pte.make ~frame:(f0 + t) flags))
              updates))
  | Install_code (f, hostile) ->
      let module Api = Nested_kernel.Api in
      let code =
        if hostile then
          Insn.assemble_raw Insn.[ Mov_to_cr (CR0, RAX); Ret ]
        else Insn.assemble_raw Insn.[ Nop; Ret ]
      in
      ignore (Api.install_code nk ~frames:[ f0 + f ] code)
  | Retire_code f ->
      ignore (Nested_kernel.Api.retire_code nk ~frames:[ f0 + f ])
  | Write_large (p, i, t, w) ->
      (* A present 2 MiB leaf must be 512-frame-aligned and fit in
         physical memory; pick a span above the fuzzed frame window. *)
      let flags =
        { (if w then Pte.user_rw_nx else Pte.user_ro_nx) with Pte.large = true }
      in
      let base =
        ((f0 / Addr.entries_per_table) + 1 + t) * Addr.entries_per_table
      in
      ignore (Api.write_pte nk ~ptp:(f0 + p) ~index:i (Pte.make ~frame:base flags))
  | Emulate off ->
      ignore
        (Nested_kernel.Api.nk_emulate_colocated_write nk
           ~dest:(Addr.kva_of_frame (f0 + 24) + off)
           (Bytes.make 4 'z'))
  | Migrate c -> (
      match smp with
      | None -> ()
      | Some smp ->
          Smp.activate smp (c mod Smp.cpu_count smp);
          (* Warm the new CPU's TLB so that, once it parks again, the
             oracle has peer entries to cross-check. *)
          ignore (Machine.kread_u64 (Api.machine nk) (Addr.kva_of_frame (f0 + c))))
  | Touch f ->
      ignore (Machine.kread_u64 (Api.machine nk) (Addr.kva_of_frame (f0 + f)))

let protected_frames_unwritable nk =
  let m = Nested_kernel.Api.machine nk in
  let st : Nested_kernel.State.t = nk in
  let bad = ref 0 in
  let descs = st.Nested_kernel.State.descs in
  Nested_kernel.Pgdesc.iter descs (fun f ->
      let must_hold =
        match Nested_kernel.Pgdesc.page_type descs f with
        | Nested_kernel.Pgdesc.Ptp _ | Nested_kernel.Pgdesc.Nk_code
        | Nested_kernel.Pgdesc.Nk_data | Nested_kernel.Pgdesc.Nk_stack
        | Nested_kernel.Pgdesc.Protected_data ->
            true
        | _ -> false
      in
      if must_hold then
        match Machine.kwrite_u64 m (Addr.kva_of_frame f) 0 with
        | Ok () -> incr bad
        | Error _ -> ());
  !bad = 0

let prop_invariants_survive_fuzzing =
  Helpers.qtest ~count:25 "random op sequences never break an invariant"
    QCheck2.Gen.(list_size (int_range 5 60) gen_op)
    (fun ops ->
      let m, nk = Helpers.booted_nk () in
      let smp = Smp.create m in
      ignore (Smp.add_cpu smp);
      ignore (Smp.add_cpu smp);
      (* Every op below now runs under the differential oracle: any
         stale-and-more-permissive cached translation, on any CPU,
         raises Coherence.Violation and fails the property. *)
      Nested_kernel.Api.Diagnostics.Coherence.enable nk;
      let f0 = Nested_kernel.Api.outer_first_frame nk in
      let descriptors = ref [||] in
      List.iter (fun op -> apply ~smp nk ~f0 descriptors op) ops;
      Smp.activate smp 0;
      Nested_kernel.Api.Diagnostics.Coherence.snapshot nk = []
      && Nested_kernel.Api.audit_ok nk
      && protected_frames_unwritable nk)

let prop_kernel_survives_fuzzing =
  Helpers.qtest ~count:10 "the outer kernel keeps working after fuzzing"
    QCheck2.Gen.(list_size (int_range 5 40) gen_op)
    (fun ops ->
      let k = Helpers.kernel Config.Perspicuos in
      let nk = Option.get k.Kernel.nk in
      Nested_kernel.Api.Diagnostics.Coherence.enable nk;
      (* Fuzz against frames the kernel has not allocated. *)
      let f0 = Frame_alloc.first_frame k.Kernel.falloc + 400 in
      let descriptors = ref [||] in
      List.iter (fun op -> apply nk ~f0 descriptors op) ops;
      let p = Kernel.current_proc k in
      (match Syscalls.fork k p with
      | Ok pid ->
          let c = Option.get (Kernel.proc k pid) in
          ignore (Kernel.switch_to k pid);
          ignore (Syscalls.exit_ k c 0);
          ignore (Kernel.switch_to k 1);
          ignore (Syscalls.wait k p)
      | Error _ -> ());
      Nested_kernel.Api.audit_ok nk)

let prop_fuzzing_under_injection =
  Helpers.qtest ~count:10 "fuzzing under fault injection stays graceful"
    QCheck2.Gen.(pair (int_range 0 1000) (list_size (int_range 5 40) gen_op))
    (fun (seed, ops) ->
      (* The usual op mix, but every mediated path can now also fail on
         purpose: the injector trips allocations, PTE writes and gate
         entries at 5% while the coherence oracle watches.  Graceful
         degradation means no exception ever escapes an op and the
         oracle and invariant audit both stay silent. *)
      let inj = Nkinject.create ~seed ~rate:0.05 () in
      let k = Os.boot ~frames:4096 ~inject:inj Config.Perspicuos in
      let nk = Option.get k.Kernel.nk in
      Nested_kernel.Api.Diagnostics.Coherence.enable nk;
      let f0 = Frame_alloc.first_frame k.Kernel.falloc + 400 in
      let descriptors = ref [||] in
      let escaped = ref 0 and violations = ref 0 in
      List.iter
        (fun op ->
          try apply nk ~f0 descriptors op with
          | Coherence.Violation vs -> violations := !violations + List.length vs
          | _ -> incr escaped)
        ops;
      (let p = Kernel.current_proc k in
       try
         match Syscalls.fork k p with
         | Ok pid ->
             let c = Option.get (Kernel.proc k pid) in
             ignore (Kernel.switch_to k pid);
             (match Syscalls.exit_ k c 0 with
             | Ok _ -> ()
             | Error _ -> Kernel.exit_proc k c 0);
             ignore (Kernel.switch_to k 1);
             ignore (Syscalls.wait k p)
         | Error _ -> ()
       with
       | Coherence.Violation vs -> violations := !violations + List.length vs
       | _ -> incr escaped);
      Nkinject.set_armed inj false;
      !escaped = 0 && !violations = 0 && Nested_kernel.Api.audit_ok nk)

let suite =
  [
    prop_invariants_survive_fuzzing;
    prop_kernel_survives_fuzzing;
    prop_fuzzing_under_injection;
  ]
