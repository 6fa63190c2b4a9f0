(* Evaluation harness: regenerates every table and figure of the
   paper's section 5, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table-3 -- one experiment
     dune exec bench/main.exe -- list    -- available experiments

   Each experiment prints paper-reported values next to measured ones;
   EXPERIMENTS.md records a reference run. *)

open Nk_workloads
open Outer_kernel

let section title = Printf.printf "\n#### %s ####\n" title

(* --- machine-readable output (--json) ----------------------------- *)

let json_fields : (string * string) list ref = ref []
let json_add key value = json_fields := (key, value) :: !json_fields

let json_obj kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs)
  ^ "}"

let write_json path =
  let oc = open_out path in
  output_string oc (json_obj (List.rev !json_fields));
  output_char oc '\n';
  close_out oc

(* --- E1: section 5.1, TCB and porting effort ---------------------- *)

let count_lines path =
  let ic = open_in path in
  let code = ref 0 and comment = ref 0 and blank = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" then incr blank
       else if String.length line >= 2 && String.sub line 0 2 = "(*" then
         incr comment
       else incr code
     done
   with End_of_file -> ());
  close_in ic;
  (!code, !comment, !blank)

let dir_loc dir ~ext =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc f ->
          if Filename.check_suffix f ext then
            let code, _, _ = count_lines (Filename.concat dir f) in
            acc + code
          else acc)
        0 entries
  | exception Sys_error _ -> 0

let table_tcb () =
  section "Section 5.1: trusted computing base";
  let root =
    if Sys.file_exists "lib/nk" then "lib"
    else if Sys.file_exists "../lib/nk" then "../lib"
    else "lib"
  in
  if not (Sys.file_exists (Filename.concat root "nk")) then
    print_endline "  (source tree not found from the current directory)"
  else begin
    let nk_ml = dir_loc (Filename.concat root "nk") ~ext:".ml" in
    let hw_ml = dir_loc (Filename.concat root "hw") ~ext:".ml" in
    let kernel_ml = dir_loc (Filename.concat root "kernel") ~ext:".ml" in
    Stats.print
      {
        Stats.title = "TCB and porting effort (source lines, implementation)";
        columns = [ "component"; "this repo"; "paper" ];
        rows =
          [
            [ "nested kernel (TCB)"; string_of_int nk_ml; "~4000 C + ~800 asm" ];
            [ "outer kernel"; string_of_int kernel_ml; "FreeBSD 9.0 (millions)" ];
            [ "hardware model"; string_of_int hw_ml; "(real silicon)" ];
          ];
        notes =
          [
            "paper: port touched 52 files / ~1900 LOC of FreeBSD; here the \
             porting surface is the Mmu_backend record the whole VM \
             subsystem is written against";
          ];
      }
  end

(* --- E2: section 5.2, code-scanning results ----------------------- *)

let table_scan () =
  section "Section 5.2: de-privileging scanner";
  let program = Binary_gen.paper_kernel () in
  let code = Nkhw.Insn.assemble program in
  let findings = Nested_kernel.Scanner.scan code in
  let s = Nested_kernel.Scanner.summarize findings in
  let before = Binary_gen.sample_outputs program in
  match Nested_kernel.Scanner.deprivilege program with
  | Error msg -> Printf.printf "  rewrite FAILED: %s\n" msg
  | Ok (clean, stats) ->
      let rescan = Nested_kernel.Scanner.scan (Nkhw.Insn.assemble clean) in
      let after = Binary_gen.sample_outputs clean in
      Stats.print
        {
          Stats.title = "Implicit protected instructions in the kernel binary";
          columns = [ "metric"; "measured"; "paper" ];
          rows =
            [
              [ "binary size (bytes)"; string_of_int (Bytes.length code); "-" ];
              [ "explicit occurrences"; string_of_int s.explicit_count; "0" ];
              [ "implicit mov-to-CR0"; string_of_int s.implicit_cr0; "2" ];
              [ "implicit wrmsr"; string_of_int s.implicit_wrmsr; "38" ];
              [
                "total implicit";
                string_of_int (s.total - s.explicit_count);
                "40";
              ];
              [
                "after rewrite";
                string_of_int (List.length rescan);
                "0 (all eliminated)";
              ];
              [ "constants split"; string_of_int stats.constants_split; "-" ];
              [
                "expressions rewritten";
                string_of_int stats.exprs_rewritten;
                "-";
              ];
              [ "nops inserted"; string_of_int stats.nops_inserted; "-" ];
              [
                "semantics preserved";
                (if before = after then "yes" else "NO");
                "yes";
              ];
            ];
          notes =
            [
              "paper found 2 implicit CR0 writes and 38 implicit wrmsr in \
               the compiled FreeBSD kernel and eliminated them with the \
               same three techniques";
            ];
        }

(* --- E3..E8 -------------------------------------------------------- *)

let table_3 () =
  section "Table 3: privilege boundary crossing costs";
  let r = Boundary.run () in
  json_add "table3_us"
    (json_obj
       [
         ("nk_call", Printf.sprintf "%.4f" r.Boundary.nk_call_us);
         ("syscall", Printf.sprintf "%.4f" r.Boundary.syscall_us);
         ("vmcall", Printf.sprintf "%.4f" r.Boundary.vmcall_us);
       ]);
  Stats.print (Boundary.to_table r)

let figure_4 () =
  section "Figure 4: LMBench microbenchmarks";
  let rows = Lmbench.figure4 () in
  Stats.print (Lmbench.to_table rows);
  Stats.print_bar_chart
    ~title:"base PerspicuOS, time relative to native (paper Figure 4)"
    ~max_value:3.5
    (List.map
       (fun (r : Lmbench.figure4_row) ->
         (r.Lmbench.bench_name, List.assoc Config.Perspicuos r.Lmbench.relative))
       rows)

let figure_5 () =
  section "Figure 5: SSHD bandwidth";
  let points = Sshd.run () in
  Stats.print (Sshd.to_table points);
  Stats.print_bar_chart
    ~title:"base PerspicuOS, bandwidth relative to native (paper Figure 5)"
    ~max_value:1.0
    (List.map
       (fun (p : Sshd.point) ->
         ( Printf.sprintf "%d KB" p.Sshd.size_kb,
           List.assoc Config.Perspicuos p.Sshd.relative ))
       points)

let figure_6 () =
  section "Figure 6: Apache bandwidth";
  Stats.print (Apache.to_table (Apache.run ()))

let table_4 () =
  section "Table 4: kernel build";
  Stats.print (Kbuild.to_table (Kbuild.run ()))

let ablation_batch () =
  section "Ablation (section 5.4): batched vMMU updates";
  let interesting = [ "mmap"; "fork + exit"; "fork + exec" ] in
  let rows =
    List.filter_map
      (fun (b : Lmbench.bench) ->
        if not (List.mem b.Lmbench.name interesting) then None
        else begin
          let native = Lmbench.measure Config.Native ~batched:false b in
          let unbatched = Lmbench.measure Config.Perspicuos ~batched:false b in
          let batched = Lmbench.measure Config.Perspicuos ~batched:true b in
          let reduction =
            (unbatched -. batched) /. (unbatched -. native) *. 100.
          in
          Some
            [
              b.Lmbench.name;
              Stats.f2 (unbatched /. native);
              Stats.f2 (batched /. native);
              Stats.f1 reduction;
            ]
        end)
      Lmbench.benches
  in
  Stats.print
    {
      Stats.title = "Batched vMMU updates (one gate crossing per batch)";
      columns =
        [ "benchmark"; "unbatched rel"; "batched rel"; "overhead cut %" ];
      rows;
      notes =
        [
          "paper section 5.4: converting the hot functions to batch \
           operations reduced the mmap-path overhead by more than 60%";
        ];
    }

(* --- extensions: allocator, granularity gap, context switches ----- *)

let ablation_allocator () =
  section "Ablation (section 6): nested-kernel-guarded allocator";
  let cycles_per_op k allocator =
    let ops = 400 in
    let w =
      Nkhw.Window.repeat ~warm:1 k.Kernel.machine ops (fun () ->
          let c = Result.get_ok (Guarded_alloc.alloc allocator) in
          ignore (Guarded_alloc.free allocator c))
    in
    Nkhw.Window.cycles w / (2 * ops)
  in
  let kn = Os.boot Config.Native in
  let inline_cost =
    cycles_per_op kn
      (Guarded_alloc.create_inline kn.Kernel.machine kn.Kernel.falloc
         ~chunk_size:64)
  in
  let kg = Os.boot Config.Perspicuos in
  let guarded_cost =
    cycles_per_op kg
      (Result.get_ok
         (Guarded_alloc.create_guarded kg.Kernel.machine kg.Kernel.falloc
            (Option.get kg.Kernel.nk) ~chunk_size:64))
  in
  Stats.print
    {
      Stats.title = "Allocator metadata protection cost (cycles per op)";
      columns = [ "variant"; "cycles/op"; "metadata attackable?" ];
      rows =
        [
          [ "inline (UMA-style)"; string_of_int inline_cost; "yes (Phrack 0x42)" ];
          [ "nested-kernel guarded"; string_of_int guarded_cost; "no" ];
        ];
      notes =
        [
          "section 6: moving allocator metadata behind nk_write trades cycles per alloc/free for immunity to free-list corruption";
        ];
    }

let ablation_granularity () =
  section "Ablation (section 3.8): in-place protection vs dedicated pages";
  let m = Nkhw.Machine.create ~frames:2048 () in
  let nk = Nested_kernel.Api.boot_exn m in
  let frame = Nested_kernel.Api.outer_first_frame nk + 1 in
  let base = Nkhw.Addr.kva_of_frame frame in
  let _wd =
    Result.get_ok
      (Nested_kernel.Api.nk_declare nk ~base ~size:64
         Nested_kernel.Policy.unrestricted)
  in
  let plain = Nkhw.Addr.kva_of_frame (frame + 1) in
  let ops = 200 in
  let measure f =
    Nkhw.Window.cycles (Nkhw.Window.repeat ~warm:1 m ops f) / ops
  in
  let direct_cost =
    measure (fun () ->
        match Nkhw.Machine.kwrite_u64 m plain 1 with Ok () -> () | Error _ -> ())
  in
  let emulated_cost =
    measure (fun () ->
        match
          Nested_kernel.Api.nk_emulate_colocated_write nk ~dest:(base + 1024)
            (Bytes.make 8 'x')
        with
        | Ok () -> ()
        | Error _ -> ())
  in
  Stats.print
    {
      Stats.title =
        "Writing unprotected data: separate page vs co-located (trap+emulate)";
      columns = [ "placement"; "cycles/write"; "slowdown" ];
      rows =
        [
          [ "dedicated unprotected page"; string_of_int direct_cost; "1x" ];
          [
            "co-located on a protected page";
            string_of_int emulated_cost;
            Printf.sprintf "%dx" (emulated_cost / max 1 direct_cost);
          ];
        ];
      notes =
        [
          "why the paper gives protected statics their own ELF section (linker-script change, section 3.8)";
        ];
    }

let extra_ctx_switch () =
  section "Extra: context-switch latency (not in the paper's figures)";
  let n = 100 in
  let measure ~pcid config =
    let k = Os.boot ~pcid config in
    let p = Kernel.current_proc k in
    let sched = Sched.create k in
    (match Syscalls.fork k p with
    | Ok pid -> Sched.add sched pid
    | Error _ -> ());
    let w =
      Nkhw.Window.repeat ~warm:2 k.Kernel.machine n (fun () ->
          ignore (Sched.yield sched))
    in
    let cycles = Nkhw.Window.cycles w in
    ( Nkhw.Costs.cycles_to_us cycles /. float_of_int n,
      cycles / n,
      Nkhw.Window.count w Nktrace.Tlb_flush_full,
      Nkhw.Window.count w Nktrace.Tlb_flush_asid )
  in
  let rows =
    List.concat_map
      (fun c ->
        [ (Config.name c, measure ~pcid:true c, true) ]
        @
        (* PCID ablation: the no-tag baseline for the two headline
           systems, every switch paying the full flush. *)
        if c = Config.Native || c = Config.Perspicuos then
          [ (Config.name c ^ " (no PCID)", measure ~pcid:false c, false) ]
        else [])
      Config.all
  in
  let native_us =
    match List.find_opt (fun (name, _, _) -> name = "native") rows with
    | Some (_, (us, _, _, _), _) -> us
    | None -> 1.0
  in
  json_add "ctx_switch"
    (json_obj
       (List.map
          (fun (name, (us, cyc, full, asid), pcid) ->
            ( name,
              json_obj
                [
                  ("us_per_switch", Printf.sprintf "%.4f" us);
                  ("cycles_per_switch", string_of_int cyc);
                  ("tlb_flush_full", string_of_int full);
                  ("tlb_flush_asid", string_of_int asid);
                  ("switches", string_of_int n);
                  ("pcid", string_of_bool pcid);
                ] ))
          rows));
  Stats.print
    {
      Stats.title = "2-process ping-pong context switch (us per switch)";
      columns =
        [
          "system"; "us/switch"; "relative"; "full flushes"; "ASID flushes";
        ];
      rows =
        List.map
          (fun (name, (us, _, full, asid), _) ->
            [
              name;
              Printf.sprintf "%.3f" us;
              Stats.f2 (us /. native_us);
              Printf.sprintf "%d/%d" full n;
              Printf.sprintf "%d/%d" asid n;
            ])
          rows;
      notes =
        [
          "every mediated switch pays a gate crossing plus the hidden CR3-code page map/unmap (section 3.7)";
          "with PCID the clean-pair switch skips the full TLB flush; the \
           no-PCID rows are the ablation baseline";
        ];
    }

let extra_smp_shootdown () =
  section "Extra: TLB-shootdown scaling with CPU count";
  let cost_with cpus =
    let m = Nkhw.Machine.create ~frames:2048 () in
    let nk = Nested_kernel.Api.boot_exn m in
    let smp = Nkhw.Smp.create m in
    for _ = 2 to cpus do
      ignore (Nkhw.Smp.add_cpu smp)
    done;
    let f = Nested_kernel.Api.outer_first_frame nk in
    ignore (Result.get_ok (Nested_kernel.Api.declare_ptp nk ~level:1 f));
    let map () =
      ignore
        (Result.get_ok
           (Nested_kernel.Api.write_pte nk ~ptp:f ~index:0
              (Nkhw.Pte.make ~frame:(f + 1) Nkhw.Pte.user_rw_nx)))
    in
    let unmap () =
      ignore
        (Result.get_ok
           (Nested_kernel.Api.write_pte nk ~ptp:f ~index:0 Nkhw.Pte.empty))
    in
    map ();
    unmap ();
    map ();
    Nkhw.Window.cycles (Nkhw.Window.repeat m 1 unmap)
  in
  Stats.print
    {
      Stats.title = "Mediated unmap (PTE clear + shootdown), cycles by CPU count";
      columns = [ "CPUs"; "cycles per unmap" ];
      rows =
        List.map
          (fun n -> [ string_of_int n; string_of_int (cost_with n) ])
          [ 1; 2; 4; 8 ];
      notes =
        [
          "each remote CPU adds one IPI; the paper's prototype was            uniprocessor (section 3.10), this extension quantifies the SMP            cost the design implies";
        ];
    }

let extra_smp_scaling () =
  section "Extra: SMP scheduler scaling (deterministic executor)";
  (* The oracle and the invariant audit are cycle-free, so running the
     sweep checked costs nothing in simulated time; host time around
     the sweep gives the wallclock rate (simulated cycles per host
     second) the JSON reports. *)
  let host0 = Sys.time () in
  let points = Smp_scale.run ~coherence:true () in
  let host_secs = Sys.time () -. host0 in
  let total_cycles =
    List.fold_left (fun a p -> a + p.Smp_scale.cycles) 0 points
  in
  let wallclock =
    if host_secs > 0. then float_of_int total_cycles /. host_secs else 0.
  in
  let json_list items = "[" ^ String.concat ", " items ^ "]" in
  json_add "smp_scaling"
    (json_obj
       [
         ( "seed",
           string_of_int
             (match points with
             | p :: _ -> p.Smp_scale.seed
             | [] -> Harness.default_seed) );
         ("wallclock", Printf.sprintf "%.0f" wallclock);
         ( "points",
           json_list
             (List.map
                (fun (p : Smp_scale.point) ->
                  json_obj
                    [
                      ("cpus", string_of_int p.Smp_scale.cpus);
                      ("steps", string_of_int p.Smp_scale.steps);
                      ("syscalls", string_of_int p.Smp_scale.syscalls);
                      ("cycles", string_of_int p.Smp_scale.cycles);
                      ( "syscalls_per_mcycle",
                        Printf.sprintf "%.1f" p.Smp_scale.throughput );
                      ( "shootdowns_rx",
                        json_list
                          (List.map string_of_int p.Smp_scale.shootdowns) );
                      ("ipi_shootdowns", string_of_int p.Smp_scale.ipis);
                      ("shootdown_sent", string_of_int p.Smp_scale.sent);
                      ( "shootdown_filtered",
                        string_of_int p.Smp_scale.filtered );
                      ( "shootdown_coalesced",
                        string_of_int p.Smp_scale.coalesced );
                      ("flush_deferred", string_of_int p.Smp_scale.deferred);
                      ("flush_on_reuse", string_of_int p.Smp_scale.reuse);
                      ("steals", string_of_int p.Smp_scale.steals);
                      ("migrations", string_of_int p.Smp_scale.migrations);
                      ( "oracle_violations",
                        string_of_int p.Smp_scale.oracle_violations );
                      ( "audit_failures",
                        string_of_int p.Smp_scale.audit_failures );
                    ])
                points) );
       ]);
  Stats.print (Smp_scale.to_table points)

let extra_server_scale () =
  section "Extra: event-driven serving at 1k..100k live connections (E15)";
  let host0 = Sys.time () in
  let points = Server_scale.run () in
  let host_secs = Sys.time () -. host0 in
  let json_list items = "[" ^ String.concat ", " items ^ "]" in
  json_add "server_scale"
    (json_obj
       [
         ( "seed",
           string_of_int
             (match points with
             | p :: _ -> p.Server_scale.seed
             | [] -> Harness.default_seed) );
         ("cpus", string_of_int Server_scale.cpus);
         ("host_secs", Printf.sprintf "%.1f" host_secs);
         ( "points",
           json_list
             (List.map
                (fun (p : Server_scale.point) ->
                  json_obj
                    [
                      ("config", Printf.sprintf "%S" (Config.name p.Server_scale.config));
                      ("conns", string_of_int p.Server_scale.conns);
                      ("steps", string_of_int p.Server_scale.steps);
                      ("live_peak", string_of_int p.Server_scale.live_peak);
                      ("accepted", string_of_int p.Server_scale.accepted);
                      ("completed", string_of_int p.Server_scale.completed);
                      ("gets", string_of_int p.Server_scale.gets);
                      ("sets", string_of_int p.Server_scale.sets);
                      ("p50", string_of_int p.Server_scale.p50);
                      ("p99", string_of_int p.Server_scale.p99);
                      ("p999", string_of_int p.Server_scale.p999);
                      ("fd_op_cycles", string_of_int p.Server_scale.fd_op_cycles);
                      ( "accepts_local",
                        string_of_int p.Server_scale.accepts_local );
                      ( "accepts_steal",
                        string_of_int p.Server_scale.accepts_steal );
                      ( "backlog_drops",
                        string_of_int p.Server_scale.backlog_drops );
                      ( "epoll_wakeups",
                        string_of_int p.Server_scale.epoll_wakeups );
                      ("slab_hits", string_of_int p.Server_scale.slab_hits);
                      ( "slab_refills",
                        string_of_int p.Server_scale.slab_refills );
                      ("cycles", string_of_int p.Server_scale.cycles);
                      ( "wallclock",
                        Printf.sprintf "%.0f"
                          (if p.Server_scale.host_secs > 0. then
                             float_of_int p.Server_scale.cycles
                             /. p.Server_scale.host_secs
                           else 0.) );
                      ( "oracle_violations",
                        string_of_int p.Server_scale.oracle_violations );
                      ( "audit_failures",
                        string_of_int p.Server_scale.audit_failures );
                    ])
                points) );
       ]);
  Stats.print (Server_scale.to_table points)

let extra_multitenant () =
  section
    "Extra: multi-tenant serving — N tenant domains vs native vs \
     simulated hypervisor (E17)";
  let host0 = Sys.time () in
  let points = Multitenant.run () in
  let host_secs = Sys.time () -. host0 in
  let json_list items = "[" ^ String.concat ", " items ^ "]" in
  json_add "multitenant"
    (json_obj
       [
         ( "seed",
           string_of_int
             (match points with
             | p :: _ -> p.Multitenant.seed
             | [] -> Harness.default_seed) );
         ("cpus", string_of_int Multitenant.cpus);
         ("scratch_pages", string_of_int Multitenant.scratch_pages);
         ("scratch_iters", string_of_int Multitenant.scratch_iters);
         ("host_secs", Printf.sprintf "%.1f" host_secs);
         ( "points",
           json_list
             (List.map
                (fun (p : Multitenant.point) ->
                  json_obj
                    [
                      ( "config",
                        Printf.sprintf "%S" (Config.name p.Multitenant.config)
                      );
                      ("tenants", string_of_int p.Multitenant.tenants);
                      ("conns", string_of_int p.Multitenant.conns);
                      ("steps", string_of_int p.Multitenant.steps);
                      ("completed", string_of_int p.Multitenant.completed);
                      ( "throughput",
                        Printf.sprintf "%.3f" p.Multitenant.throughput );
                      ("p50", string_of_int p.Multitenant.p50);
                      ("p99", string_of_int p.Multitenant.p99);
                      ("p999", string_of_int p.Multitenant.p999);
                      ( "xdom_denials",
                        string_of_int p.Multitenant.xdom_denials );
                      ("vmcalls", string_of_int p.Multitenant.vmcalls);
                      ( "sched_epochs",
                        string_of_int p.Multitenant.sched_epochs );
                      ("pipe_words", string_of_int p.Multitenant.pipe_words);
                      ( "teardown_leaks",
                        string_of_int p.Multitenant.teardown_leaks );
                      ("cycles", string_of_int p.Multitenant.cycles);
                      ( "per_tenant_completed",
                        json_list
                          (List.map
                             (fun (t : Multitenant.tenant) ->
                               string_of_int t.Multitenant.t_completed)
                             p.Multitenant.per_tenant) );
                      ( "oracle_violations",
                        string_of_int p.Multitenant.oracle_violations );
                      ( "audit_failures",
                        string_of_int p.Multitenant.audit_failures );
                    ])
                points) );
       ]);
  Stats.print (Multitenant.to_table points)

let extra_coherence () =
  section "Extra: differential TLB-coherence oracle overhead";
  (* The oracle is a debug/CI instrument: with the hook uninstalled the
     check sites must cost literally nothing, and the enabled cost puts
     a number on what running the fuzzer under it pays. *)
  let workload nk f0 =
    let module Api = Nested_kernel.Api in
    ignore (Result.get_ok (Api.declare_ptp nk ~level:1 f0));
    for i = 0 to 63 do
      ignore
        (Result.get_ok
           (Api.write_pte nk ~ptp:f0 ~index:(i mod Nkhw.Addr.entries_per_table)
              (Nkhw.Pte.make ~frame:(f0 + 1 + (i mod 8)) Nkhw.Pte.user_rw_nx)));
      ignore
        (Result.get_ok
           (Api.write_pte nk ~ptp:f0 ~index:(i mod Nkhw.Addr.entries_per_table)
              Nkhw.Pte.empty))
    done;
    ignore (Result.get_ok (Api.remove_ptp nk f0))
  in
  let run mode =
    let m = Nkhw.Machine.create ~frames:2048 () in
    let nk = Nested_kernel.Api.boot_exn m in
    (match mode with
    | `Baseline -> ()
    | `Off ->
        (* Install and immediately remove: the leftover cost must be 0. *)
        Nested_kernel.Api.Diagnostics.Coherence.enable nk;
        Nested_kernel.Api.Diagnostics.Coherence.disable nk
    | `On -> Nested_kernel.Api.Diagnostics.Coherence.enable nk);
    let f0 = Nested_kernel.Api.outer_first_frame nk in
    workload nk f0;
    Nkhw.Clock.cycles m.Nkhw.Machine.clock
  in
  let timed mode =
    let t0 = Sys.time () in
    let cycles = run mode in
    (cycles, Sys.time () -. t0)
  in
  let baseline, base_s = timed `Baseline in
  let off, off_s = timed `Off in
  let on, on_s = timed `On in
  json_add "coherence_oracle"
    (json_obj
       [
         ("baseline_cycles", string_of_int baseline);
         ("oracle_off_cycles", string_of_int off);
         ("oracle_on_cycles", string_of_int on);
         ("off_overhead_cycles", string_of_int (off - baseline));
         ("oracle_on_wallclock_x", Printf.sprintf "%.1f" (on_s /. max 1e-9 off_s));
       ]);
  Stats.print
    {
      Stats.title =
        "vMMU map/unmap workload under the coherence oracle";
      columns = [ "mode"; "simulated cycles"; "host ms" ];
      rows =
        [
          [
            "baseline (never installed)";
            string_of_int baseline;
            Printf.sprintf "%.1f" (base_s *. 1e3);
          ];
          [
            "oracle off";
            (if off = baseline then string_of_int off ^ " (identical)"
             else string_of_int off ^ " -- MUST EQUAL BASELINE");
            Printf.sprintf "%.1f" (off_s *. 1e3);
          ];
          [ "oracle on"; string_of_int on; Printf.sprintf "%.1f" (on_s *. 1e3) ];
        ];
      notes =
        [
          "oracle-off must be cycle-identical to a machine that never \
           installed it (the hook site is a single match on an option field)";
          "the oracle audits out-of-band, so oracle-on charges no simulated \
           cycles either -- its price is host wall-clock, paid only in tests \
           and CI";
        ];
    }

let extra_latency_hist () =
  section "Extra: per-operation latency distributions (nktrace histograms)";
  let module Tr = Nktrace in
  let interesting = [ "null syscall"; "open/close"; "mmap"; "fork + exit" ] in
  let snaps =
    List.filter_map
      (fun (b : Lmbench.bench) ->
        if List.mem b.Lmbench.name interesting then
          Some
            (b.Lmbench.name,
             Lmbench.measure_traced Config.Perspicuos ~batched:false b)
        else None)
      Lmbench.benches
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let hists pred (snap : Tr.snapshot) =
    List.filter (fun (name, _) -> pred name) snap.Tr.histograms
  in
  json_add "latency_hist"
    (json_obj
       (List.map
          (fun (bname, snap) ->
            ( bname,
              json_obj
                (List.map
                   (fun (hname, h) -> (hname, Tr.summary_to_json h))
                   (hists (starts_with "sys_") snap)) ))
          snaps));
  (* Gate-crossing span breakdown from the mmap run: its page-table
     updates all cross the nested kernel's gates. *)
  (match List.assoc_opt "mmap" snaps with
  | Some snap ->
      json_add "gate_spans"
        (json_obj
           (List.map
              (fun (hname, h) -> (hname, Tr.summary_to_json h))
              (hists (starts_with "gate") snap)))
  | None -> ());
  Stats.print
    {
      Stats.title =
        "PerspicuOS per-operation latency (cycles; p50/p95/p99 from nktrace)";
      columns = [ "benchmark"; "span"; "count"; "p50"; "p95"; "p99" ];
      rows =
        List.concat_map
          (fun (bname, snap) ->
            List.map
              (fun (hname, (h : Tr.hist_summary)) ->
                [
                  bname;
                  hname;
                  string_of_int h.Tr.h_count;
                  string_of_int h.Tr.p50;
                  string_of_int h.Tr.p95;
                  string_of_int h.Tr.p99;
                ])
              (hists
                 (fun n -> starts_with "sys_" n || starts_with "gate" n)
                 snap))
          snaps;
      notes =
        [
          "histograms come from the cycle-stamped tracer (zero simulated \
           cost); spans cover dispatch+handler (sys_*) and the nested \
           kernel's privilege-boundary sequences (gate_*)";
        ];
    }

let fault_soak () =
  section "Extra: fault-injection soak (graceful degradation)";
  let host0 = Sys.time () in
  let r = Fault_soak.run ~seed:7 () in
  let host_secs = Sys.time () -. host0 in
  let wallclock =
    if host_secs > 0. then float_of_int r.Fault_soak.cycles /. host_secs else 0.
  in
  json_add "fault_soak"
    (json_obj
       [
         ("seed", string_of_int r.Fault_soak.seed);
         ("rate", Printf.sprintf "%g" r.Fault_soak.rate);
         ("ops", string_of_int r.Fault_soak.ops);
         ("completed", string_of_int r.Fault_soak.completed);
         ("degraded", string_of_int r.Fault_soak.degraded);
         ("total_injected", string_of_int r.Fault_soak.total_injected);
         ( "injected",
           json_obj
             (List.map
                (fun (site, n) -> (site, string_of_int n))
                r.Fault_soak.injected) );
         ("escaped_exceptions", string_of_int r.Fault_soak.escaped_exceptions);
         ( "coherence_violations",
           string_of_int r.Fault_soak.coherence_violations );
         ("invariant_failures", string_of_int r.Fault_soak.invariant_failures);
         ("survived", string_of_bool (Fault_soak.survived r));
         ("cycles", string_of_int r.Fault_soak.cycles);
         ("host_secs", Printf.sprintf "%.3f" host_secs);
         ("wallclock", Printf.sprintf "%.0f" wallclock);
       ]);
  Stats.print (Fault_soak.to_table r)

(* --- steady-state allocation: the zero-allocation hot-path claim --- *)

let gc_alloc () =
  section "Extra: steady-state GC pressure (minor words per operation)";
  (* Warm everything first — TLB fills, Hashtbl resizes, lazy
     histogram registration — so the measured window sees only the
     steady state the hot-path refactor targets.  Minor-word deltas
     are exact counts of the allocation the loop performs, so a fixed
     workload gives the same number on every run and host. *)
  let per_op ~warm ~ops f =
    for _ = 1 to warm do
      f ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to ops do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int ops
  in
  let kper = Os.boot Config.Perspicuos in
  let pper = Kernel.current_proc kper in
  let null_words =
    per_op ~warm:1000 ~ops:100_000 (fun () ->
        ignore (Syscalls.getpid kper pper))
  in
  let ksh = Os.boot_with_files Config.Perspicuos [ ("/srv/f", 65536) ] in
  let psh = Kernel.current_proc ksh in
  let open_close_words =
    per_op ~warm:200 ~ops:10_000 (fun () ->
        match Syscalls.open_ ksh psh "/srv/f" with
        | Ok fd -> ignore (Syscalls.close ksh psh fd)
        | Error _ -> ())
  in
  (* The traced variant covers the int-packed ring: counter bumps and
     span begin/end must not add allocation when tracing is on. *)
  let ktr = Os.boot ~trace:true Config.Perspicuos in
  let ptr_ = Kernel.current_proc ktr in
  let traced_words =
    per_op ~warm:1000 ~ops:100_000 (fun () ->
        ignore (Syscalls.getpid ktr ptr_))
  in
  json_add "gc"
    (json_obj
       [
         ("minor_words_per_syscall", Printf.sprintf "%.2f" null_words);
         ("minor_words_per_open_close", Printf.sprintf "%.2f" open_close_words);
         ("minor_words_per_syscall_traced", Printf.sprintf "%.2f" traced_words);
       ]);
  Stats.print
    {
      Stats.title = "Steady-state allocation (Gc.minor_words per op)";
      columns = [ "operation"; "minor words/op" ];
      rows =
        [
          [ "null syscall (getpid)"; Printf.sprintf "%.2f" null_words ];
          [ "open + close"; Printf.sprintf "%.2f" open_close_words ];
          [ "null syscall, tracing on"; Printf.sprintf "%.2f" traced_words ];
        ];
      notes =
        [
          "exact minor-heap words allocated per operation after warmup; \
           the zero-allocation hot-path work keeps these a small constant \
           so soaks are bounded by simulation work, not GC";
        ];
    }

let attacks () =
  section "Security evaluation: attack x configuration matrix";
  List.iter
    (fun config ->
      Printf.printf "\n-- %s --\n" (Config.name config);
      List.iter
        (fun (a : Nk_attacks.Attack.t) ->
          let k = Os.boot config in
          let outcome = a.Nk_attacks.Attack.run k in
          let expected = Nk_attacks.All.expected_defended config a.name in
          let agree = Nk_attacks.Attack.defended outcome = expected in
          Printf.printf "  %s %-26s %s\n"
            (if agree then "ok" else "??")
            a.Nk_attacks.Attack.name
            (Format.asprintf "%a" Nk_attacks.Attack.pp_outcome outcome))
        Nk_attacks.All.attacks)
    Config.all

(* --- Bechamel: wall-clock performance of the harness itself ------- *)

let bechamel () =
  section "Bechamel: harness wall-clock micro-costs (one per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let nk_machine = Nkhw.Machine.create ~frames:2048 () in
  let nk = Nested_kernel.Api.boot_exn nk_machine in
  let kper = Os.boot Config.Perspicuos in
  let pper = Kernel.current_proc kper in
  let ksh = Os.boot_with_files Config.Perspicuos [ ("/srv/f", 65536) ] in
  let psh = Kernel.current_proc ksh in
  let scan_code = Nkhw.Insn.assemble (Binary_gen.paper_kernel ()) in
  let tests =
    Test.make_grouped ~name:"nested-kernel"
      [
        (* Table 3 *)
        Test.make ~name:"table3-nk-call"
          (Staged.stage (fun () -> ignore (Nested_kernel.Api.nk_null nk)));
        (* Figure 4 *)
        Test.make ~name:"figure4-null-syscall"
          (Staged.stage (fun () -> ignore (Syscalls.getpid kper pper)));
        (* Figures 5/6: one streamed block through the VFS *)
        Test.make ~name:"figure5-6-read-block"
          (Staged.stage (fun () ->
               match Syscalls.open_ ksh psh "/srv/f" with
               | Ok fd ->
                   ignore (Syscalls.read ksh psh fd 8192);
                   ignore (Syscalls.close ksh psh fd)
               | Error _ -> ()));
        (* Table 4: the fork-heavy path *)
        Test.make ~name:"table4-fork-exit"
          (Staged.stage (fun () ->
               match Syscalls.fork kper pper with
               | Ok pid ->
                   let c = Option.get (Kernel.proc kper pid) in
                   ignore (Kernel.switch_to kper pid);
                   ignore (Syscalls.exit_ kper c 0);
                   ignore (Kernel.switch_to kper pper.Proc.pid);
                   ignore (Syscalls.wait kper pper)
               | Error _ -> ()));
        (* Section 5.2 *)
        Test.make ~name:"table-scan-full-scan"
          (Staged.stage (fun () ->
               ignore (Nested_kernel.Scanner.scan scan_code)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  let estimates =
    List.filter_map
      (fun name ->
        match Analyze.OLS.estimates (Hashtbl.find results name) with
        | Some (est :: _) -> Some (name, est)
        | Some [] | None -> None)
      (List.sort compare names)
  in
  json_add "bechamel_ns_per_run"
    (json_obj
       (List.map (fun (n, est) -> (n, Printf.sprintf "%.0f" est)) estimates));
  List.iter
    (fun name ->
      match List.assoc_opt name estimates with
      | Some est -> Printf.printf "  %-45s %12.0f ns/run\n" name est
      | None -> Printf.printf "  %-45s (no estimate)\n" name)
    (List.sort compare names)

let experiments =
  [
    ("table-tcb", table_tcb);
    ("table-scan", table_scan);
    ("table-3", table_3);
    ("figure-4", figure_4);
    ("figure-5", figure_5);
    ("figure-6", figure_6);
    ("table-4", table_4);
    ("ablation-batch", ablation_batch);
    ("ablation-allocator", ablation_allocator);
    ("ablation-granularity", ablation_granularity);
    ("extra-ctx-switch", extra_ctx_switch);
    ("extra-smp-shootdown", extra_smp_shootdown);
    ("extra-smp-scaling", extra_smp_scaling);
    ("server-scale", extra_server_scale);
    ("multitenant", extra_multitenant);
    ("extra-coherence", extra_coherence);
    ("extra-latency-hist", extra_latency_hist);
    ("fault-soak", fault_soak);
    ("gc-alloc", gc_alloc);
    ("attacks", attacks);
    ("bechamel", bechamel);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  (match args with
  | [] | [ "all" ] ->
      print_endline
        "Nested Kernel reproduction: regenerating every table and figure";
      List.iter (fun (_, f) -> f ()) experiments
  | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (try: list)\n" name;
              exit 1)
        names);
  if json then begin
    write_json "BENCH_nksim.json";
    print_endline "\nwrote BENCH_nksim.json"
  end
