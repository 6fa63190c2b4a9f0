(* nksim: command-line driver for the nested-kernel simulator.

     nksim boot    [-c CONFIG]          boot and report system state
     nksim attacks [-c CONFIG] [-a NAME] run the attack suite
     nksim audit   [-c CONFIG]          boot, stress, audit invariants
     nksim serve   [-c CONFIG] [--conns N] event-driven server under load
     nksim list                         list configurations and attacks *)

open Cmdliner
open Outer_kernel

let config_arg =
  let parse s =
    match Config.of_name s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown configuration %S (try: %s)" s
               (String.concat ", " (List.map Config.name Config.all))))
  in
  let print ppf c = Format.pp_print_string ppf (Config.name c) in
  Arg.conv (parse, print)

let config =
  Arg.(
    value
    & opt config_arg Config.Perspicuos
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"System configuration: native, perspicuos, append-only, \
              write-once or write-log.")

let trace_arg =
  Arg.(
    value
    & opt
        ~vopt:(Some `Summary)
        (some (enum [ ("summary", `Summary); ("json", `Json) ]))
        None
    & info [ "trace" ] ~docv:"FORMAT"
        ~doc:"Enable the cycle-stamped tracer for the run and report it: \
              $(b,summary) (default) prints event counters and latency \
              histograms, $(b,json) dumps the full snapshot as JSON. \
              Tracing charges no simulated cycles.")

let print_trace fmt (m : Nkhw.Machine.t) =
  let snap = Nktrace.snapshot m.Nkhw.Machine.trace in
  match fmt with
  | `Json -> print_endline (Nktrace.to_json snap)
  | `Summary ->
      Printf.printf "  trace           : %d events in ring (%d overwritten)\n"
        (List.length snap.Nktrace.events)
        snap.Nktrace.dropped;
      if snap.Nktrace.counters <> [] then begin
        print_endline "  counters:";
        List.iter
          (fun (name, v) -> Printf.printf "    %-28s %d\n" name v)
          snap.Nktrace.counters
      end;
      if snap.Nktrace.histograms <> [] then begin
        print_endline "  latency histograms (cycles):";
        List.iter
          (fun (name, (h : Nktrace.hist_summary)) ->
            Printf.printf "    %-28s n=%-6d p50=%-6d p95=%-6d p99=%d\n" name
              h.Nktrace.h_count h.Nktrace.p50 h.Nktrace.p95 h.Nktrace.p99)
          snap.Nktrace.histograms
      end

(* --inject sites=frame+gate+ipi-drop,rate=0.01,seed=42 — any field
   may be omitted; [sites=all] is the default. *)
let inject_spec =
  let parse s =
    try
      let sites = ref Nkinject.all_sites in
      let rate = ref 0.01 and seed = ref 42 in
      List.iter
        (fun field ->
          if field <> "" then
            match String.index_opt field '=' with
            | None ->
                failwith (Printf.sprintf "bad field %S (want key=value)" field)
            | Some i ->
                let key = String.sub field 0 i in
                let v = String.sub field (i + 1) (String.length field - i - 1) in
                (match key with
                | "sites" ->
                    if v = "all" then sites := Nkinject.all_sites
                    else
                      sites :=
                        List.map
                          (fun n ->
                            match Nkinject.site_of_name n with
                            | Some site -> site
                            | None ->
                                failwith
                                  (Printf.sprintf
                                     "unknown site %S (try: %s or all)" n
                                     (String.concat ", "
                                        (List.map Nkinject.site_name
                                           Nkinject.all_sites))))
                          (String.split_on_char '+' v)
                | "rate" -> (
                    match float_of_string_opt v with
                    | Some r when r >= 0.0 && r <= 1.0 -> rate := r
                    | _ -> failwith (Printf.sprintf "bad rate %S" v))
                | "seed" -> (
                    match int_of_string_opt v with
                    | Some n -> seed := n
                    | None -> failwith (Printf.sprintf "bad seed %S" v))
                | k -> failwith (Printf.sprintf "unknown key %S" k)))
        (String.split_on_char ',' s);
      Ok (!sites, !rate, !seed)
    with Failure msg -> Error (`Msg msg)
  in
  let print ppf (sites, rate, seed) =
    Format.fprintf ppf "sites=%s,rate=%g,seed=%d"
      (String.concat "+" (List.map Nkinject.site_name sites))
      rate seed
  in
  Arg.conv (parse, print)

let inject_arg =
  Arg.(
    value
    & opt (some inject_spec) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:"Attach the deterministic fault injector: \
              $(b,sites=frame+gate+ipi-drop,rate=0.01,seed=42).  Sites \
              are $(b,+)-separated injection-site names (or $(b,all)); \
              $(b,rate) is the per-site probability per decision point; \
              the same $(b,seed) reproduces the same fault schedule \
              exactly.  Injected counts and the invariant audit are \
              reported after the run.")

let cpus_arg =
  Arg.(
    value
    & opt int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:"Bring up $(docv) vCPUs (per-CPU kernel stacks, run queues \
              and gate state).")

let sched_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sched-seed" ] ~docv:"SEED"
        ~doc:"After boot, drive a short multi-process run under the \
              deterministic seeded executor and report per-CPU state. \
              The same seed reproduces the interleaving exactly.")

let smp_run k seed =
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  let cpus = Nkhw.Smp.cpu_count k.Kernel.smp in
  for _ = 1 to (2 * cpus) - 1 do
    match Syscalls.fork k p0 with
    | Ok pid -> Sched.add sched pid
    | Error _ -> ()
  done;
  let tick = ref 0 in
  let steps =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps:(50 * cpus)
      (fun ~cpu:_ pid ->
        incr tick;
        (match Kernel.proc k pid with
        | None -> ()
        | Some p ->
            ignore (Syscalls.getpid k p);
            if !tick mod 4 = 0 then
              match Syscalls.mmap k p ~len:4096 ~rw:true ~populate:true () with
              | Ok va -> ignore (Syscalls.munmap k p va)
              | Error _ -> ());
        true)
  in
  Printf.printf "  sched seed      : %d (%d executor steps)\n" seed steps;
  for id = 0 to cpus - 1 do
    Printf.printf
      "  cpu%-2d           : running=%s queue=[%s] local-cycles=%d \
       shootdowns-rx=%d\n"
      id
      (match k.Kernel.running.(id) with
      | Some pid -> string_of_int pid
      | None -> "-")
      (String.concat ";" (List.map string_of_int (Sched.queue_of sched id)))
      (Nkhw.Smp.local_cycles k.Kernel.smp id)
      (Nkhw.Smp.shootdowns_rx k.Kernel.smp id)
  done;
  let counter ev =
    Nktrace.counter_value k.Kernel.machine.Nkhw.Machine.trace ev
  in
  Printf.printf
    "  shootdowns      : sent=%d filtered=%d coalesced=%d\n"
    (counter Nktrace.Shootdown_sent)
    (counter Nktrace.Shootdown_filtered)
    (counter Nktrace.Shootdown_coalesced);
  Printf.printf "  lazy flushes    : deferred=%d fired-on-reuse=%d\n"
    (counter Nktrace.Flush_deferred)
    (counter Nktrace.Flush_on_reuse)

(* Host-side wallclock and GC stats go to stderr: stdout is the
   deterministic report (CI diffs reruns byte-for-byte), and these
   numbers legitimately vary with the host. *)
let host_report ~host_secs ~cycles =
  let wallclock =
    if host_secs > 0. then float_of_int cycles /. host_secs else 0.
  in
  let g = Gc.quick_stat () in
  Printf.eprintf "  host wallclock  : %.0f sim cycles/host sec (%.3fs host)\n"
    wallclock host_secs;
  Printf.eprintf "  GC              : %.0f minor words, %d minor / %d major \
                  collections\n"
    g.Gc.minor_words g.Gc.minor_collections g.Gc.major_collections

let boot_cmd =
  let run config trace cpus sched_seed inject_spec =
    let host0 = Sys.time () in
    let inject =
      Option.map
        (fun (sites, rate, seed) -> Nkinject.create ~sites ~seed ~rate ())
        inject_spec
    in
    let k = Os.boot ~trace:(trace <> None) ~cpus ?inject config in
    let m = k.Kernel.machine in
    Printf.printf "booted %s\n" (Config.name config);
    Printf.printf "  vCPUs           : %d\n" cpus;
    Printf.printf "  physical frames : %d\n"
      (Nkhw.Phys_mem.num_frames m.Nkhw.Machine.mem);
    Printf.printf "  free outer pool : %d frames\n"
      (Nkhw.Frame_alloc.free_count k.Kernel.falloc);
    Printf.printf "  CR state        : %s\n"
      (Format.asprintf "%a" Nkhw.Cr.pp m.Nkhw.Machine.cr);
    Printf.printf "  boot cycles     : %d\n"
      (Nkhw.Clock.cycles m.Nkhw.Machine.clock);
    (match k.Kernel.nk with
    | Some nk ->
        Printf.printf "  nested kernel   : %d frames reserved, audit %s\n"
          (Nested_kernel.Api.outer_first_frame nk)
          (if Nested_kernel.Api.audit_ok nk then "clean" else "VIOLATIONS")
    | None -> Printf.printf "  nested kernel   : (none)\n");
    (match sched_seed with
    | Some seed -> smp_run k seed
    | None ->
        if cpus > 1 || inject <> None then
          smp_run k Nk_workloads.Harness.default_seed);
    (match inject with
    | None -> ()
    | Some inj ->
        Printf.printf "  fault injection : seed=%d rate=%g — %d injected\n"
          (Nkinject.seed inj) (Nkinject.rate inj)
          (Nkinject.total_injected inj);
        List.iter
          (fun (site, n) ->
            if n > 0 then Printf.printf "    %-14s %d\n" site n)
          (Nkinject.counts inj);
        let audit_line =
          match k.Kernel.nk with
          | Some nk ->
              if Nested_kernel.Api.audit_ok nk then "invariants clean"
              else "INVARIANT VIOLATIONS"
          | None -> "no nested kernel"
        in
        Printf.printf "  post-fault audit: %s\n" audit_line);
    (match trace with None -> () | Some fmt -> print_trace fmt m);
    host_report ~host_secs:(Sys.time () -. host0)
      ~cycles:(Nkhw.Clock.cycles m.Nkhw.Machine.clock);
    0
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a kernel and report system state")
    Term.(
      const run $ config $ trace_arg $ cpus_arg $ sched_seed_arg $ inject_arg)

let attack_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "a"; "attack" ] ~docv:"NAME" ~doc:"Run a single attack by name.")

let attacks_cmd =
  let run config name =
    let selected =
      match name with
      | None -> Nk_attacks.All.attacks
      | Some n ->
          List.filter
            (fun (a : Nk_attacks.Attack.t) -> a.Nk_attacks.Attack.name = n)
            Nk_attacks.All.attacks
    in
    if selected = [] then begin
      Printf.eprintf "no such attack; try: nksim list\n";
      1
    end
    else begin
      let failures = ref 0 in
      List.iter
        (fun (a : Nk_attacks.Attack.t) ->
          let k = Os.boot config in
          let outcome = a.Nk_attacks.Attack.run k in
          let expected = Nk_attacks.All.expected_defended config a.name in
          if Nk_attacks.Attack.defended outcome <> expected then incr failures;
          Printf.printf "%-26s [%s] %s\n" a.Nk_attacks.Attack.name
            a.Nk_attacks.Attack.paper_ref
            (Format.asprintf "%a" Nk_attacks.Attack.pp_outcome outcome))
        selected;
      if !failures > 0 then begin
        Printf.printf "\n%d outcome(s) deviate from the paper's matrix\n"
          !failures;
        1
      end
      else 0
    end
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"Run the rootkit/exploit suite against a config")
    Term.(const run $ config $ attack_name)

let audit_cmd =
  let run config =
    let k = Os.boot config in
    let p = Kernel.current_proc k in
    (* Stress: process churn, mmap churn, module cycle. *)
    for _ = 1 to 8 do
      match Syscalls.fork k p with
      | Ok pid ->
          let c = Option.get (Kernel.proc k pid) in
          ignore (Kernel.switch_to k pid);
          ignore (Syscalls.execve k c "/bin/sh");
          ignore (Syscalls.exit_ k c 0);
          ignore (Kernel.switch_to k 1);
          ignore (Syscalls.wait k p)
      | Error _ -> ()
    done;
    (match Syscalls.mmap k p ~len:(64 * 4096) ~rw:true ~populate:true () with
    | Ok va -> ignore (Syscalls.munmap k p va)
    | Error _ -> ());
    match k.Kernel.nk with
    | None ->
        print_endline "native configuration: nothing to audit";
        0
    | Some nk ->
        let violations = Nested_kernel.Api.audit nk in
        if violations = [] then begin
          print_endline "all nested-kernel invariants hold after stress";
          0
        end
        else begin
          List.iter
            (fun v ->
              Format.printf "%a@." Nested_kernel.Invariants.pp_violation v)
            violations;
          1
        end
  in
  Cmd.v (Cmd.info "audit" ~doc:"Boot, stress the kernel, audit invariants")
    Term.(const run $ config)

(* nksim check: the exhaustive small-scope model checker (nkcheck). *)

let vocab_arg =
  let parse s =
    match Nkcheck.vocab_of_name s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown vocabulary %S (try: core, full, domains)" s))
  in
  let print ppf v = Format.pp_print_string ppf (Nkcheck.vocab_name v) in
  Arg.(
    value
    & opt (conv (parse, print)) Nkcheck.default.Nkcheck.vocab
    & info [ "vocab" ] ~docv:"VOCAB"
        ~doc:"Op vocabulary: $(b,core) (12 ops, exhaustible to depth 5), \
              $(b,full) (every op the checker knows) or $(b,domains) (two \
              tenant domains plus cross-domain traffic, checking the \
              ownership lattice).")

let depth_arg =
  Arg.(
    value
    & opt int Nkcheck.default.Nkcheck.depth
    & info [ "depth" ] ~docv:"N" ~doc:"Maximum op-sequence length to exhaust.")

let check_inject_arg =
  Arg.(
    value & flag
    & info [ "inject" ]
        ~doc:"Add the deterministic (rate-1.0) fault-injector toggle ops to \
              the vocabulary, so gate-denial and IPI-fault error paths are \
              exhausted too.")

let max_states_arg =
  Arg.(
    value
    & opt int Nkcheck.default.Nkcheck.max_states
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Safety valve on the visited-state set; hitting it marks the run \
              truncated (and the bound not exhausted).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Write each shrunk counterexample as a replayable script \
              $(i,DIR)/cx-$(i,N)-$(i,SIGNATURE).nkcheck.")

let replay_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Instead of exploring, replay the op script in $(i,FILE) with \
              full per-step checks and report any violations.")

let check_cmd =
  let run depth vocab inject max_states out replay =
    match replay with
    | Some path ->
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let content = really_input_string ic len in
        close_in ic;
        let outcome = Nkcheck.replay_script content in
        Printf.printf "replay %s: %d ops\n" path
          (List.length outcome.Nkcheck.ro_ops);
        if outcome.Nkcheck.ro_failures = [] then begin
          print_endline "clean: no invariant, oracle or shutdown violations";
          0
        end
        else begin
          List.iter
            (fun (step, detail) -> Printf.printf "  step %d: %s\n" step detail)
            outcome.Nkcheck.ro_failures;
          1
        end
    | None ->
        let cfg = { Nkcheck.depth; vocab; inject; max_states } in
        let report = Nkcheck.run cfg in
        Format.printf "%a" Nkcheck.pp_report report;
        (match out with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            List.iteri
              (fun i cx ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "cx-%d-%s.nkcheck" i cx.Nkcheck.cx_signature)
                in
                let oc = open_out path in
                output_string oc (Nkcheck.script_of_counterexample cfg cx);
                close_out oc;
                Printf.printf "wrote %s\n" path)
              report.Nkcheck.rp_counterexamples);
        if
          report.Nkcheck.rp_counterexamples = []
          && not report.Nkcheck.rp_truncated
        then 0
        else 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaust all op interleavings up to a depth bound, checking \
             invariants I1-I14 and the TLB-coherence oracle at every step")
    Term.(
      const run $ depth_arg $ vocab_arg $ check_inject_arg $ max_states_arg
      $ out_arg $ replay_file_arg)

(* nksim serve: one cell of the event-driven server scaling sweep. *)

let conns_arg =
  Arg.(
    value
    & opt int 10_000
    & info [ "conns" ] ~docv:"N"
        ~doc:"Live-connection target for the load generator (the full \
              bench sweeps 1k..100k).")

let serve_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Executor/load-generator seed (default: NKSIM_SCHED_SEED or \
              42); the same seed reproduces every number.")

let et_arg =
  Arg.(
    value & flag
    & info [ "et" ]
        ~doc:"Run the workers' connections edge-triggered instead of \
              level-triggered.")

let domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:"Partition the serving load across $(docv) mutually \
              distrusting tenant domains (each with its own kv server, \
              listener, ASID partition and run-queue credit account) \
              instead of one shared kernel tenancy.")

let serve_tenants config tenants conns seed =
  let module M = Nk_workloads.Multitenant in
  let seed = Option.value seed ~default:Nk_workloads.Harness.default_seed in
  let conns = match conns with 10_000 -> M.default_conns | n -> n in
  let p = M.run_one ~seed ~tenants ~conns ~config () in
  Printf.printf
    "multi-tenant kv: %s, %d vCPUs, %d tenants x %d connections (seed %d)\n"
    (Config.name config) M.cpus tenants conns seed;
  List.iteri
    (fun i (t : M.tenant) ->
      Printf.printf
        "  tenant %-2d       : %d requests (%d GET / %d SET), live peak %d%s\n"
        (i + 1) t.M.t_completed t.M.t_gets t.M.t_sets t.M.t_live_peak
        (if t.M.t_domain > 0 then Printf.sprintf " [domain %d]" t.M.t_domain
         else ""))
    p.M.per_tenant;
  Printf.printf "  requests        : %d total\n" p.M.completed;
  Printf.printf "  latency (cycles): p50=%d p99=%d p999=%d\n" p.M.p50 p.M.p99
    p.M.p999;
  Printf.printf "  throughput      : %.2f req/Mcycle\n" p.M.throughput;
  Printf.printf "  isolation       : %d cross-domain denials, %d pipe words, \
                  %d teardown leaks\n"
    p.M.xdom_denials p.M.pipe_words p.M.teardown_leaks;
  Printf.printf "  scheduler       : %d credit epochs\n" p.M.sched_epochs;
  if p.M.vmcalls > 0 then
    Printf.printf "  vmcalls         : %d\n" p.M.vmcalls;
  Printf.printf "  oracle/audit    : %d violations, %d failures\n"
    p.M.oracle_violations p.M.audit_failures;
  host_report ~host_secs:p.M.host_secs ~cycles:p.M.cycles;
  if
    p.M.oracle_violations = 0 && p.M.audit_failures = 0
    && p.M.teardown_leaks = 0
  then 0
  else 1

let serve_cmd =
  let run config conns seed et domains =
    if domains > 0 then serve_tenants config domains conns seed
    else begin
    let module S = Nk_workloads.Server_scale in
    let seed = Option.value seed ~default:(Nk_workloads.Harness.env_seed ()) in
    let p = S.run_one ~seed ~et ~config conns in
    Printf.printf "kv server: %s, %d vCPUs, %d-connection target (seed %d%s)\n"
      (Config.name config) S.cpus conns seed
      (if et then ", edge-triggered" else "");
    Printf.printf "  live peak       : %d connections\n" p.S.live_peak;
    Printf.printf "  accepted        : %d (%d local, %d stolen, %d dropped)\n"
      p.S.accepted p.S.accepts_local p.S.accepts_steal p.S.backlog_drops;
    Printf.printf "  requests        : %d (%d GET / %d SET)\n" p.S.completed
      p.S.gets p.S.sets;
    Printf.printf "  latency (cycles): p50=%d p99=%d p999=%d\n" p.S.p50 p.S.p99
      p.S.p999;
    Printf.printf "  fd open/close   : %d cycles at peak table size\n"
      p.S.fd_op_cycles;
    Printf.printf "  epoll wakeups   : %d\n" p.S.epoll_wakeups;
    Printf.printf "  slab magazines  : %d hits / %d refills\n" p.S.slab_hits
      p.S.slab_refills;
    Printf.printf "  oracle/audit    : %d violations, %d failures\n"
      p.S.oracle_violations p.S.audit_failures;
    host_report ~host_secs:p.S.host_secs ~cycles:p.S.cycles;
    if p.S.oracle_violations = 0 && p.S.audit_failures = 0 then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the event-driven kv server under open-loop load on 8 vCPUs \
             and report latency percentiles, fd-op cost and accept/steal \
             behaviour; with $(b,--domains) $(i,N), split the load across \
             $(i,N) isolated tenant domains instead")
    Term.(
      const run $ config $ conns_arg $ serve_seed_arg $ et_arg $ domains_arg)

let list_cmd =
  let run () =
    print_endline "configurations:";
    List.iter (fun c -> Printf.printf "  %s\n" (Config.name c)) Config.all;
    print_endline "attacks:";
    List.iter
      (fun (a : Nk_attacks.Attack.t) ->
        Printf.printf "  %-26s %s\n" a.Nk_attacks.Attack.name
          a.Nk_attacks.Attack.description)
      Nk_attacks.All.attacks;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List configurations and attacks")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "nksim" ~version:"1.0.0"
      ~doc:"Nested Kernel (ASPLOS'15) simulator driver"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ boot_cmd; attacks_cmd; audit_cmd; check_cmd; serve_cmd; list_cmd ]))
