open Nkhw
open Outer_kernel

(* The tracer core (lib/obs) plus its wiring into the machine, the
   gates, the syscall dispatcher and the Api.Diagnostics surface. *)

let contains s fragment = Astring_contains.contains s fragment

(* A hand-cranked cycle source so span durations are exact. *)
let manual_clock () =
  let now = ref 0 in
  (now, fun () -> !now)

let test_disabled_is_noop () =
  (* Disabled tracer: the ring, histograms and spans stay silent, but
     counters — the single event registry — accumulate regardless. *)
  let t = Nktrace.create () in
  Nktrace.count t Nktrace.Syscall;
  Nktrace.observe t "lat" 42;
  let enter = Nktrace.span_id Nktrace.Gate_enter in
  Nktrace.span_begin t enter;
  Nktrace.span_end t enter;
  Nktrace.mark t "m";
  let snap = Nktrace.snapshot t in
  Alcotest.(check int) "no events" 0 (List.length snap.Nktrace.events);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Nktrace.histograms);
  Alcotest.(check (list (pair string int))) "counters still live"
    [ ("syscall", 1) ] snap.Nktrace.counters;
  Alcotest.(check int) "counter accumulates while disabled" 1
    (Nktrace.counter_value t Nktrace.Syscall)

let test_counters () =
  let t = Nktrace.create () in
  Nktrace.enable t;
  Nktrace.count t Nktrace.Syscall;
  Nktrace.count_n t Nktrace.Syscall 4;
  Alcotest.(check int) "accumulated" 5
    (Nktrace.counter_value t Nktrace.Syscall);
  let snap = Nktrace.snapshot t in
  Alcotest.(check (list (pair string int))) "by name" [ ("syscall", 5) ]
    snap.Nktrace.counters

(* The registry, pinned: every constructor with the name it reports
   under.  A constructor missing from the library's table, a wrong
   index or a renamed counter fails here. *)
let registry =
  Nktrace.
    [
      (Tlb_flush_full, "tlb_flush_full");
      (Tlb_flush_asid, "tlb_flush_asid");
      (Tlb_flush_page, "tlb_flush_page");
      (Tlb_flush_span, "tlb_flush_span");
      (Tlb_hit, "tlb_hit");
      (Tlb_miss, "tlb_miss");
      (Pte_write, "pte_write");
      (Pte_write_batch, "pte_write_batch");
      (Declare_ptp, "declare_ptp");
      (Remove_ptp, "remove_ptp");
      (Load_cr0, "load_cr0");
      (Load_cr3, "load_cr3");
      (Load_cr3_pcid, "load_cr3_pcid");
      (Load_cr4, "load_cr4");
      (Load_efer, "load_efer");
      (Nk_enter, "nk_enter");
      (Nk_declare, "nk_declare");
      (Nk_alloc, "nk_alloc");
      (Nk_free, "nk_free");
      (Nk_write, "nk_write");
      (Nk_write_denied, "nk_write_denied");
      (Colocated_trap, "colocated_trap");
      (Colocated_emulated_write, "colocated_emulated_write");
      (Syscall, "syscall");
      (Context_switch, "context_switch");
      (Fork, "fork");
      (Fork_vm, "fork_vm");
      (Exec, "exec");
      (Exit, "exit");
      (Vm_fault, "vm_fault");
      (Cow_copy, "cow_copy");
      (Vm_destroy, "vm_destroy");
      (Cpu_migration, "cpu_migration");
      (Cpu_borrow, "smp_borrow");
      (Ipi_reschedule, "ipi_reschedule");
      (Ipi_shootdown, "ipi_shootdown");
      (Ipi_halt, "ipi_halt");
      (Shootdown_sent, "shootdown_sent");
      (Shootdown_filtered, "shootdown_filtered");
      (Shootdown_coalesced, "shootdown_coalesced");
      (Flush_deferred, "flush_deferred");
      (Flush_on_reuse, "flush_on_reuse");
      (Sched_steal, "sched_steal");
      (Signal_delivered, "signal_delivered");
      (Syslog_event, "syslog_event");
      (Syslog_flush, "syslog_flush");
      (Sock_conn_open, "sock_conn_open");
      (Sock_conn_close, "sock_conn_close");
      (Sock_backlog_drop, "sock_backlog_drop");
      (Accept_local, "accept_local");
      (Accept_steal, "accept_steal");
      (Epoll_wakeup, "epoll_wakeup");
      (Slab_cpu_hit, "slab_cpu_hit");
      (Slab_cpu_refill, "slab_cpu_refill");
      (Slab_cpu_flush, "slab_cpu_flush");
      (Smi, "smi");
      (Dma_write, "dma_write");
      (Trap, "trap");
      (Cr_write, "cr_write");
      (Wrmsr, "wrmsr");
      (Vmcall, "vmcall");
      (Asid_recycle, "asid_recycle");
      (Sched_epoch, "sched_epoch");
      (Xdom_denied, "xdom_denied");
      (Domain_create, "domain_create");
      (Domain_enter, "domain_enter");
      (Domain_destroy, "domain_destroy");
      (Pipe_send, "pipe_send");
      (Install_code, "install_code");
      (Retire_code, "retire_code");
    ]

let test_registry_pinned () =
  let t = Nktrace.create () in
  Nktrace.enable t;
  let bump (c, _) = Nktrace.count t c in
  let w0 = Gc.minor_words () in
  List.iter bump registry;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "bumps allocate nothing" 0. words;
  Alcotest.(check (list (pair string int))) "every counter once, by name"
    (List.sort compare (List.map (fun (_, name) -> (name, 1)) registry))
    (Nktrace.snapshot t).Nktrace.counters;
  List.iter
    (fun (c, name) ->
      Alcotest.(check string) name name (Nktrace.counter_name c))
    registry

(* [late]: the tracer counts while disabled first, so it holds no
   ring, and gets one at its first [enable]. *)
let test_ring_overwrite ~late ~cap () =
  let t = Nktrace.create ~ring_capacity:cap () in
  if late then begin
    Nktrace.count_n t Nktrace.Pte_write 0;
    let snap = Nktrace.snapshot t in
    Alcotest.(check int) "no ring before enable" 0
      (List.length snap.Nktrace.events + snap.Nktrace.dropped)
  end;
  Nktrace.enable t;
  for i = 1 to 10 do
    Nktrace.count_n t Nktrace.Pte_write i
  done;
  let snap = Nktrace.snapshot t in
  Alcotest.(check int) "ring holds capacity" cap
    (List.length snap.Nktrace.events);
  Alcotest.(check int) "overwrites counted" (10 - cap) snap.Nktrace.dropped;
  (* Oldest-first, and seq survives the overwrite. *)
  let seqs = List.map (fun r -> r.Nktrace.seq) snap.Nktrace.events in
  Alcotest.(check (list int)) "oldest first, newest kept"
    (List.init cap (fun i -> 10 - cap + i))
    seqs;
  Alcotest.(check int) "counter unaffected by overwrite" 55
    (Nktrace.counter_value t Nktrace.Pte_write);
  Nktrace.clear t;
  let snap = Nktrace.snapshot t in
  Alcotest.(check int) "clear empties the ring" 0
    (List.length snap.Nktrace.events);
  Alcotest.(check int) "clear resets dropped" 0 snap.Nktrace.dropped

let test_percentiles () =
  let t = Nktrace.create () in
  Nktrace.enable t;
  (* 1..100 in a scrambled order: nearest-rank percentiles are exact. *)
  for i = 0 to 99 do
    Nktrace.observe t "lat" ((i * 37 mod 100) + 1)
  done;
  match Nktrace.histogram t "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 100 h.Nktrace.h_count;
      Alcotest.(check int) "min" 1 h.Nktrace.h_min;
      Alcotest.(check int) "max" 100 h.Nktrace.h_max;
      Alcotest.(check (float 0.001)) "mean" 50.5 h.Nktrace.h_mean;
      Alcotest.(check int) "p50" 50 h.Nktrace.p50;
      Alcotest.(check int) "p95" 95 h.Nktrace.p95;
      Alcotest.(check int) "p99" 99 h.Nktrace.p99

let test_reservoir_bounded () =
  let t = Nktrace.create ~hist_capacity:8 () in
  Nktrace.enable t;
  for i = 1 to 1000 do
    Nktrace.observe t "lat" i
  done;
  match Nktrace.histogram t "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      (* count/min/max/mean cover every observation even though only 8
         samples are stored for the percentiles. *)
      Alcotest.(check int) "count covers all" 1000 h.Nktrace.h_count;
      Alcotest.(check int) "min covers all" 1 h.Nktrace.h_min;
      Alcotest.(check int) "max covers all" 1000 h.Nktrace.h_max;
      Alcotest.(check (float 0.001)) "mean covers all" 500.5 h.Nktrace.h_mean;
      Alcotest.(check bool) "percentile from stored window" true
        (h.Nktrace.p50 >= 1 && h.Nktrace.p50 <= 1000)

let test_span_pairing () =
  let t = Nktrace.create () in
  let now, src = manual_clock () in
  Nktrace.set_now t src;
  Nktrace.enable t;
  let crossing = Nktrace.span_id Nktrace.Gate_crossing in
  (* Same-name spans nest LIFO: outer 100 cycles, inner 10. *)
  Nktrace.span_begin t crossing;
  now := 45;
  Nktrace.span_begin t crossing;
  now := 55;
  Nktrace.span_end t crossing;
  now := 100;
  Nktrace.span_end t crossing;
  (* Unmatched end is silently ignored. *)
  Nktrace.span_end t crossing;
  (match Nktrace.histogram t "gate_crossing" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "two completed spans" 2 h.Nktrace.h_count;
      Alcotest.(check int) "inner duration" 10 h.Nktrace.h_min;
      Alcotest.(check int) "outer duration" 100 h.Nktrace.h_max);
  let ends =
    List.filter
      (fun r ->
        match r.Nktrace.event with Nktrace.Span_end _ -> true | _ -> false)
      (Nktrace.snapshot t).Nktrace.events
  in
  Alcotest.(check int) "unmatched end recorded nothing" 2 (List.length ends)

(* Begin/end resolve everything through the span id: once a (span,
   cpu) pair has its open stack and histogram, a traced pair writes a
   few ints and allocates nothing — for the payload-carrying spans the
   vMMU, the shootdown path and syscall dispatch use on every call. *)
let test_span_path_allocates_nothing () =
  let t = Nktrace.create () in
  let now, src = manual_clock () in
  Nktrace.set_now t src;
  Nktrace.enable t;
  List.iter
    (fun span ->
      let sp = Nktrace.span_id span in
      Nktrace.span_begin t sp;
      Nktrace.span_end t sp;
      let w0 = Gc.minor_words () in
      for i = 1 to 10_000 do
        Nktrace.span_begin t sp;
        now := i;
        Nktrace.span_end t sp
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.))
        (Nktrace.span_name span ^ ": minor words after the first pair")
        0. words;
      match Nktrace.histogram t (Nktrace.span_name span) with
      | Some h -> Alcotest.(check int) "every pair recorded" 10_001 h.Nktrace.h_count
      | None -> Alcotest.fail "histogram missing")
    [
      Nktrace.Vmmu_op "write_pte";
      Nktrace.Shootdown "page";
      Nktrace.Syscall_dispatch "getpid";
    ]

let test_cycle_stamps_follow_clock () =
  let m = Helpers.machine () in
  Nktrace.enable m.Machine.trace;
  let c0 = Clock.cycles m.Machine.clock in
  Machine.charge m 123;
  Nktrace.mark m.Machine.trace "after-charge";
  let snap = Nktrace.snapshot m.Machine.trace in
  let last = List.nth snap.Nktrace.events (List.length snap.Nktrace.events - 1) in
  Alcotest.(check int) "stamped with the simulated clock" (c0 + 123)
    last.Nktrace.cycles

(* The tentpole's pinned claim: tracing charges nothing.  Same
   discipline as the coherence oracle's delta test — identical
   workloads, one with the tracer enabled-then-disabled, one that never
   touched it, must end on the same simulated cycle.  And because the
   tracer is out-of-band by construction, even leaving it ENABLED must
   not move the clock. *)
let test_zero_cost () =
  let workload mode =
    let m, nk = Helpers.booted_nk () in
    let module Api = Nested_kernel.Api in
    (match mode with
    | `Baseline -> ()
    | `Off ->
        Api.Diagnostics.Tracing.enable nk;
        Api.Diagnostics.Tracing.disable nk
    | `On -> Api.Diagnostics.Tracing.enable nk);
    let f0 = Api.outer_first_frame nk in
    Helpers.check_ok_nk "declare" (Api.declare_ptp nk ~level:1 f0);
    for i = 0 to 31 do
      Helpers.check_ok_nk "map"
        (Api.write_pte nk ~ptp:f0 ~index:(i mod Addr.entries_per_table)
           (Pte.make ~frame:(f0 + 1 + (i mod 4)) Pte.user_rw_nx));
      Helpers.check_ok_nk "unmap"
        (Api.write_pte nk ~ptp:f0 ~index:(i mod Addr.entries_per_table)
           Pte.empty)
    done;
    Helpers.check_ok_nk "remove" (Api.remove_ptp nk f0);
    Clock.cycles m.Machine.clock
  in
  let baseline = workload `Baseline in
  Alcotest.(check int) "enable+disable is cycle-identical" baseline
    (workload `Off);
  Alcotest.(check int) "even enabled tracing charges nothing" baseline
    (workload `On)

let test_syscall_zero_cost () =
  (* End-to-end over the outer kernel: a traced boot + syscall batch
     must cost exactly the same simulated cycles as an untraced one. *)
  let run trace =
    let k = Os.boot ~trace Config.Perspicuos in
    let p = Kernel.current_proc k in
    for _ = 1 to 50 do
      ignore (Syscalls.getpid k p)
    done;
    Clock.cycles k.Kernel.machine.Machine.clock
  in
  Alcotest.(check int) "bit-identical cycle counts" (run false) (run true)

let test_counters_live_without_tracing () =
  (* The legacy string-counter shim is gone: the typed registry is the
     single source of event counts, and it works on an untraced boot —
     the ring stays empty but every architectural event is counted. *)
  let k = Os.boot Config.Perspicuos in
  let p = Kernel.current_proc k in
  for _ = 1 to 7 do
    ignore (Syscalls.getpid k p)
  done;
  let tr = k.Kernel.machine.Machine.trace in
  Alcotest.(check bool) "tracer still disabled" false (Nktrace.enabled tr);
  Alcotest.(check int) "no ring entries" 0
    (List.length (Nktrace.snapshot tr).Nktrace.events);
  Alcotest.(check bool) "syscalls counted" true
    (Nktrace.counter_value tr Nktrace.Syscall >= 7);
  Alcotest.(check bool) "boot-time vMMU events counted" true
    (Nktrace.counter_value tr Nktrace.Pte_write > 0
    && Nktrace.counter_value tr Nktrace.Nk_enter > 0
    && Nktrace.counter_value tr Nktrace.Declare_ptp > 0)

let test_syscall_spans_and_gates () =
  let k = Os.boot ~trace:true Config.Perspicuos in
  let p = Kernel.current_proc k in
  Nktrace.clear k.Kernel.machine.Machine.trace;
  for _ = 1 to 9 do
    ignore (Syscalls.getpid k p)
  done;
  (* getpid never enters the nested kernel; an mmap/munmap pair drives
     PTE writes through the gates. *)
  (match Syscalls.mmap k p ~len:(4 * Addr.page_size) ~rw:true ~populate:true () with
  | Ok va -> ignore (Syscalls.munmap k p va)
  | Error e -> Alcotest.failf "mmap: %s" (Ktypes.errno_to_string e));
  let snap = Nktrace.snapshot k.Kernel.machine.Machine.trace in
  (match List.assoc_opt "sys_getpid" snap.Nktrace.histograms with
  | None -> Alcotest.fail "sys_getpid histogram missing"
  | Some h ->
      Alcotest.(check int) "one span per dispatch" 9 h.Nktrace.h_count;
      Alcotest.(check bool) "positive latency" true (h.Nktrace.h_min > 0));
  Alcotest.(check bool) "gate crossings recorded" true
    (List.mem_assoc "gate_crossing" snap.Nktrace.histograms);
  Alcotest.(check bool) "enter-gate spans recorded" true
    (List.mem_assoc "gate_enter" snap.Nktrace.histograms);
  Alcotest.(check bool) "exit-gate spans recorded" true
    (List.mem_assoc "gate_exit" snap.Nktrace.histograms)

let test_json_rendering () =
  let t = Nktrace.create () in
  Nktrace.enable t;
  Nktrace.count t Nktrace.Syscall;
  Nktrace.observe t "lat\"q" 7;
  let js = Nktrace.to_json (Nktrace.snapshot t) in
  List.iter
    (fun key ->
      if not (contains js key) then Alcotest.failf "%S missing in %s" key js)
    [
      "\"dropped\":0";
      "\"counters\":{";
      "\"syscall\":1";
      "\"histograms\":{";
      "\"p50\":7";
      "\"p95\":7";
      "\"p99\":7";
      "\"events\":[";
      "lat\\\"q";
    ];
  let h =
    match Nktrace.histogram t "lat\"q" with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  List.iter
    (fun key ->
      if not (contains (Nktrace.Json.to_string (Nktrace.summary_to_json h)) key) then
        Alcotest.failf "%S missing in summary" key)
    [ "\"count\":1"; "\"min\":7"; "\"max\":7"; "\"mean\":7.00"; "\"p99\":7" ]

(* Json: the one writer every trace and bench result prints through,
   and the reader a committed baseline comes back in by. *)

module Json = Nktrace.Json

let gen_json =
  let open QCheck2.Gen in
  let str =
    string_size
      ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031' ] ])
      (int_range 0 12)
  in
  let leaf =
    oneof
      [
        map (fun n -> Json.Int n) int;
        (* A Num round-trips when its value is what its printed digits
           read back as. *)
        map2
          (fun x d -> Json.Num (float_of_string (Printf.sprintf "%.*f" d x), d))
          (float_range (-1e6) 1e6) (int_range 1 6);
        map (fun s -> Json.Str s) str;
        map (fun b -> Json.Bool b) bool;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun vs -> Json.List vs)
                   (list_size (int_range 0 4) (self (n / 4))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n / 4)))) );
             ])

let test_json_round_trip =
  Helpers.qtest ~count:500 "of_string (to_string v) = Ok v" gen_json (fun v ->
      Json.of_string (Json.to_string v) = Ok v)

let test_json_compact () =
  let v =
    Json.Obj
      [
        ("a", Int (-1));
        ("b", List [ Num (0.5, 2); Int 3; Str "q\"\\\n\001"; Bool true ]);
        ("", Obj []);
      ]
  in
  Alcotest.(check string) "compact bytes"
    "{\"a\":-1,\"b\":[0.50,3,\"q\\\"\\\\\\n\\u0001\",true],\"\":{}}"
    (Json.to_string v);
  (* Zero digits print an integer, which reads back as an Int: the
     bench's wallclock rates keep the number type they had. *)
  Alcotest.(check string) "no digits" "118446538"
    (Json.to_string (Num (118446538.4, 0)));
  Alcotest.(check bool) "spaced layout reads the same" true
    (Json.of_string
       " {\"a\" : -1 ,\n \"b\": [ 0.50, 3, \"q\\\"\\\\\\n\\u0001\", true ], \"\": { } } "
    = Ok v);
  Alcotest.(check bool) "key path" true
    (Json.get [ "a" ] v = Some (Int (-1))
    && Json.get [ "a"; "x" ] v = None
    && Json.get [ "zz" ] v = None);
  Alcotest.(check (option (float 0.))) "to_float" (Some 3.)
    (Option.bind (Json.get [ "a" ] (Obj [ ("a", Int 3) ])) Json.to_float)

let test_json_malformed () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok v -> Alcotest.failf "%S parsed as %s" text (Json.to_string v)
      | Error _ -> ())
    [
      ""; "   "; "{"; "[1,]"; "[1 2]"; "{\"a\" 1}"; "{\"a\":1,}"; "{a:1}";
      "\"open"; "\"bad \\x escape\""; "\"\\u12\""; "\"\\ud800\"";
      "\"raw\nnewline\""; "tru"; "null"; "1 2"; "[1]]"; "-"; "1e"; "1-2";
    ]

let test_diagnostics_surface () =
  let _, nk = Helpers.booted_nk () in
  let module Api = Nested_kernel.Api in
  let tr = Api.Diagnostics.Tracing.tracer nk in
  Alcotest.(check bool) "tracer starts disabled" false (Nktrace.enabled tr);
  Api.Diagnostics.Tracing.enable nk;
  Alcotest.(check bool) "enabled" true (Nktrace.enabled tr);
  Nktrace.mark tr "probe";
  Alcotest.(check bool) "snapshot sees the mark" true
    (List.exists
       (fun r -> r.Nktrace.event = Nktrace.Mark "probe")
       (Api.Diagnostics.Tracing.snapshot nk).Nktrace.events);
  Api.Diagnostics.Tracing.clear nk;
  Alcotest.(check int) "clear drops it" 0
    (List.length (Api.Diagnostics.Tracing.snapshot nk).Nktrace.events);
  Api.Diagnostics.Tracing.disable nk;
  Alcotest.(check bool) "disabled" false (Nktrace.enabled tr);
  Alcotest.(check bool) "tracer accessor is stable" true
    (Api.Diagnostics.Tracing.tracer nk == tr);
  Api.Diagnostics.Coherence.enable nk;
  Alcotest.(check int) "coherence alias snapshot" 0
    (List.length (Api.Diagnostics.Coherence.snapshot nk));
  Api.Diagnostics.Coherence.disable nk;
  Alcotest.(check int) "Diagnostics.Coherence.snapshot" 0
    (List.length (Api.Diagnostics.Coherence.snapshot nk))

let test_cpu_tagging () =
  let m = Helpers.machine () in
  let smp = Smp.create m in
  let ap = Smp.add_cpu smp in
  Nktrace.enable m.Machine.trace;
  Smp.with_cpu smp ap (fun () -> Nktrace.mark m.Machine.trace "on-ap");
  Nktrace.mark m.Machine.trace "on-bsp";
  let cpu_of name snap =
    match
      List.find_opt
        (fun r -> r.Nktrace.event = Nktrace.Mark name)
        snap.Nktrace.events
    with
    | Some r -> r.Nktrace.cpu
    | None -> Alcotest.failf "mark %s missing" name
  in
  let snap = Nktrace.snapshot m.Machine.trace in
  Alcotest.(check int) "AP-tagged record" ap (cpu_of "on-ap" snap);
  Alcotest.(check int) "BSP-tagged record" 0 (cpu_of "on-bsp" snap)

let suite =
  [
    Alcotest.test_case "disabled tracer is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "typed counters" `Quick test_counters;
    Alcotest.test_case "counter registry pinned" `Quick test_registry_pinned;
    Alcotest.test_case "ring overwrite and dropped accounting" `Quick
      (test_ring_overwrite ~late:false ~cap:4);
    Alcotest.test_case "ring allocated at first enable overwrites alike" `Quick
      (test_ring_overwrite ~late:true ~cap:4);
    Alcotest.test_case "capacity-1 ring overwrites alike" `Quick
      (test_ring_overwrite ~late:false ~cap:1);
    Alcotest.test_case "exact percentiles" `Quick test_percentiles;
    Alcotest.test_case "bounded reservoir keeps global stats" `Quick
      test_reservoir_bounded;
    Alcotest.test_case "span pairing (LIFO, unmatched ignored)" `Quick
      test_span_pairing;
    Alcotest.test_case "span begin/end allocates nothing" `Quick
      test_span_path_allocates_nothing;
    Alcotest.test_case "records stamped with the simulated clock" `Quick
      test_cycle_stamps_follow_clock;
    Alcotest.test_case "tracing costs zero simulated cycles" `Quick
      test_zero_cost;
    Alcotest.test_case "traced syscalls cost zero extra cycles" `Quick
      test_syscall_zero_cost;
    Alcotest.test_case "counters live without tracing" `Quick
      test_counters_live_without_tracing;
    Alcotest.test_case "syscall + gate spans feed histograms" `Quick
      test_syscall_spans_and_gates;
    Alcotest.test_case "JSON rendering" `Quick test_json_rendering;
    test_json_round_trip;
    Alcotest.test_case "Json prints compactly, reads any layout" `Quick
      test_json_compact;
    Alcotest.test_case "malformed Json is an Error" `Quick test_json_malformed;
    Alcotest.test_case "Api.Diagnostics surface + aliases" `Quick
      test_diagnostics_surface;
    Alcotest.test_case "records carry the observing CPU" `Quick
      test_cpu_tagging;
  ]
