(* The nested-kernel simulator's benchmark: one command, three
   workloads, measured from outside the system.

     nkbench --workload tenants|c10k|modelcheck --seed N --seconds S
             --trace 0|1 [--tiny]

   A run repeats rounds of identical simulated work until [--seconds]
   have passed: each round sets up, warms up until the live population
   reaches its target, runs a fixed number of fixed-size windows, and
   passes a correctness gate.  Simulated figures come from the first
   round, so the seed alone fixes them; host figures come from every
   round.  The last line of output is one JSON object holding the
   end-to-end metrics ([--trace 0]) or the per-layer metrics
   ([--trace 1]: every other round records layer spans, which are
   written to .bench_build/spans-<workload>.json, and the tracing
   overhead is measured against the rounds that do not).  [--tiny]
   shrinks every workload for the self-tests.  A failed gate exits 1. *)

open Nkhw

(* --- metric names ------------------------------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("host_ops_per_s", "1/s"); ("host_peak_heap_mb", "MB") ]

let per_layer =
  [
    ("sim_req_per_mcycle", "req/Mcycle"); ("sim_req_p50_cycles", "cycles");
    ("sim_req_p99_cycles", "cycles"); ("sim_req_samples", "count");
    ("ops_failed_frac", "ratio"); ("host.rounds", "count"); ("host.windows", "count");
    ("host.ops_per_s_q1", "1/s"); ("host.ops_per_s_median", "1/s");
    ("evloop.calls", "count"); ("evloop.host_share", "ratio");
    ("evloop.sim_cycles", "cycles"); ("evloop.events", "count");
    ("loadgen.calls", "count"); ("loadgen.host_share", "ratio");
    ("loadgen.sim_cycles", "cycles"); ("vm.calls", "count");
    ("vm.host_share", "ratio"); ("vm.sim_cycles", "cycles");
    ("sched.host_share", "ratio"); ("sched.sim_cycles", "cycles");
    ("sched.ctx_switches", "count"); ("sched.steals", "count");
    ("sched.migrations", "count"); ("gate.entries", "count");
    ("gate.crossing_p50_cycles", "cycles"); ("vmmu.pte_writes", "count");
    ("vmmu.batches", "count"); ("vmmu.declare_ptp", "count");
    ("vmmu.remove_ptp", "count"); ("vmmu.cr3_loads", "count");
    ("pipe.calls", "count"); ("pipe.host_share", "ratio");
    ("pipe.sim_cycles", "cycles"); ("pipe.send_full", "count");
    ("domain.denials", "count"); ("domain.teardown_leaks", "count");
    ("deferred.parked", "count"); ("deferred.fired", "count");
    ("tlb.hits", "count"); ("tlb.misses", "count"); ("tlb.hit_ratio", "ratio");
    ("tlb.flush_full", "count"); ("tlb.flush_asid", "count");
    ("smp.shootdown_sent", "count"); ("smp.shootdown_filtered", "count");
    ("smp.filter_ratio", "ratio"); ("smp.coalesced", "count");
    ("smp.ipi_shootdown", "count"); ("fd.accept_local", "count");
    ("fd.accept_steal", "count"); ("fd.steal_ratio", "ratio");
    ("fd.backlog_drops", "count"); ("kalloc.slab_hit_ratio", "ratio");
    ("syscall.count", "count"); ("syscall.sim_cycles_mean", "cycles");
    ("check.states", "count"); ("check.transitions", "count");
    ("check.fixed_share", "ratio"); ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections_per_kop", "1/kop"); ("trace.overhead_frac", "ratio");
  ]

(* --- statistics --------------------------------------------------- *)

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

(* Linear-interpolation quantile. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. fi (n - 1) in
    let i = int_of_float pos in
    if i + 1 < n then a.(i) +. ((pos -. fi i) *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile 0.5 xs

(* --- output ------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every produced value must be a declared metric; declared metrics a
   workload does not exercise read 0. *)
let select spec values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n end_to_end || List.mem_assoc n per_layer) then
        failwith ("undeclared metric " ^ n))
    values;
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n values)))
    spec

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %18.6g %s\n" n v u) rows

let print_result ~correct ~attempted ~failed rows =
  let body =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      rows
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      let s = scan () in
      close_in ic;
      s

(* --- run structure ------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
}

type result = {
  failures : string list;  (* correctness-gate checks that failed *)
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Rounds until [o.seconds] have passed, at least one.  Every round
   repeats the same simulated work from a fresh set-up, so host time is
   sampled over identical inputs; in a traced run every even round
   records spans and the odd ones measure the same work without. *)
let rounds o f =
  let t0 = Unix.gettimeofday () in
  let rec go r acc =
    if r > 0 && Unix.gettimeofday () -. t0 >= o.seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (r + 1) (f ~traced:(o.trace && r mod 2 = 0) :: acc)
    end
  in
  go 0 []

(* Host figures every workload reports, from the measured windows of
   each round.  Rounds repeat identical simulated work, so window [i]
   of one round does exactly what window [i] of another does; host
   slowdowns come in bursts that only ever lengthen a window.  The
   burst-resistant host time of a round is therefore the sum over
   window positions of the fastest round at that position, and the
   host rate is the round's operations over it.  Per-round rates give
   the spread. *)
let best_time rounds =
  match rounds with
  | [] -> 0.
  | r0 :: _ ->
      let best = Array.make (List.length r0) infinity in
      List.iter
        (List.iteri (fun i w -> best.(i) <- Float.min best.(i) w.Probe.w_host))
        rounds;
      Array.fold_left ( +. ) 0. best

let round_ops ws = sum (fun w -> fi w.Probe.w_ops) ws

let host_values ~setup_s ~peak_heap_mb rounds =
  let traced, plain = List.partition (fun ws -> (List.hd ws).Probe.w_traced) rounds in
  let untraced = if plain = [] then traced else plain in
  let rates =
    List.map (fun ws -> ratio (round_ops ws) (sum (fun w -> w.Probe.w_host) ws)) untraced
  in
  let windows = List.concat rounds in
  let ops = round_ops windows in
  [
    ("setup_s", setup_s);
    ("host_ops_per_s", ratio (round_ops (List.hd untraced)) (best_time untraced));
    ("host_peak_heap_mb", peak_heap_mb);
    ("host.rounds", fi (List.length rounds));
    ("host.windows", fi (List.length windows));
    ("host.ops_per_s_q1", quantile 0.25 rates);
    ("host.ops_per_s_median", median rates);
    ("gc.minor_words_per_op", ratio (sum (fun w -> w.Probe.w_minor_words) windows) ops);
    ( "gc.major_collections_per_kop",
      1000. *. ratio (sum (fun w -> fi w.Probe.w_major) windows) ops );
    ( "trace.overhead_frac",
      if traced = [] || plain = [] then 0.
      else ratio (best_time traced) (best_time plain) -. 1. );
  ]

(* --- serving ------------------------------------------------------ *)

type round = {
  setup_s : float;
  windows : Probe.window list;  (* the measured ones *)
  syscalls : int;  (* dispatch spans over the measured windows *)
  syscall_cycles : float;
  crossing_p50 : int;
  attempted : int;  (* connection attempts *)
  dropped : int;
  gate_failures : string list;
  denials : int;
  leaks : int;
  pipe_full : int;
}

(* Set up, warm up until the population is live (plus one window),
   measure [shape.measured] windows, then run the correctness gate. *)
let serving_round o log shape ~traced =
  let t0 = Unix.gettimeofday () in
  let t = Serve.setup ~seed:o.seed shape in
  let setup_s = Unix.gettimeofday () -. t0 in
  let probe = Probe.create log t.Serve.k.Outer_kernel.Kernel.machine.Machine.clock in
  let window index traced = Serve.run_window t probe ~seed:o.seed ~index ~traced in
  let rec warm i =
    ignore (window i false);
    if Serve.warm t then i + 1 else warm (i + 1)
  in
  let first = warm 0 in
  ignore (window first false);
  let n0, c0 = Serve.syscall_totals t in
  let rec measured i acc =
    if i = shape.Serve.measured then List.rev acc
    else measured (i + 1) (window (first + 1 + i) traced :: acc)
  in
  let windows = measured 0 [] in
  let n1, c1 = Serve.syscall_totals t in
  let crossing_p50 = Serve.gate_crossing_p50 t in
  let attempted, dropped = Serve.connects t in
  let gate_failures, denials, leaks = Serve.gate t in
  {
    setup_s;
    windows;
    syscalls = n1 - n0;
    syscall_cycles = c1 -. c0;
    crossing_p50;
    attempted;
    dropped;
    gate_failures;
    denials;
    leaks;
    pipe_full = t.Serve.pipe_full;
  }

let run_serving o log shape =
  let rs = rounds o (serving_round o log shape) in
  let failures = List.sort_uniq compare (List.concat_map (fun r -> r.gate_failures) rs) in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rs in
  let failed =
    List.fold_left (fun a r -> a + r.dropped + List.length r.gate_failures) 0 rs
  in
  (* Simulated figures and counts: the first round (every round
     simulates the same thing). *)
  let r0 = List.hd rs in
  let pre = r0.windows in
  let total f = sum f pre in
  let counter c = total (fun w -> fi w.Probe.w_counters.(Serve.counter_index c)) in
  let calls l = total (fun w -> fi w.Probe.w_calls.(l)) in
  let lcycles l = total (fun w -> fi w.Probe.w_lcycles.(l)) in
  let cycles = total (fun w -> fi w.Probe.w_cycles) in
  (* Host shares over the traced windows; the scheduler's share is what
     the layer spans leave of the window spans. *)
  let traced =
    List.concat_map (fun r -> r.windows) rs |> List.filter (fun w -> w.Probe.w_traced)
  in
  let host = sum (fun w -> w.Probe.w_host) traced in
  let lhost l = sum (fun w -> w.Probe.w_lhost.(l)) traced in
  let layers = List.init Probe.nlayers Fun.id in
  let open Nktrace in
  let sent = counter Shootdown_sent and filtered = counter Shootdown_filtered in
  let local = counter Accept_local and steal = counter Accept_steal in
  let hits = counter Tlb_hit and misses = counter Tlb_miss in
  let slab_hit = counter Slab_cpu_hit and slab_refill = counter Slab_cpu_refill in
  let per_layer_values =
    List.concat_map
      (fun l ->
        let name = Probe.layer_names.(l) in
        [
          (name ^ ".calls", calls l);
          (name ^ ".host_share", ratio (lhost l) host);
          (name ^ ".sim_cycles", lcycles l);
        ])
      layers
  in
  let values =
    host_values
      ~setup_s:(median (List.map (fun r -> r.setup_s) rs))
      ~peak_heap_mb:(peak_heap_mb ())
      (List.map (fun r -> r.windows) rs)
    @ per_layer_values
    @ [
        ("sim_req_per_mcycle", 1e6 *. ratio (total (fun w -> fi w.Probe.w_ops)) cycles);
        ("sim_req_p50_cycles", median (List.map (fun w -> fi w.Probe.w_p50) pre));
        ("sim_req_p99_cycles", median (List.map (fun w -> fi w.Probe.w_p99) pre));
        ("sim_req_samples", total (fun w -> fi w.Probe.w_samples));
        ("ops_failed_frac", ratio (fi failed) (fi attempted));
        ("evloop.events", total (fun w -> fi w.Probe.w_events));
        ("sched.host_share", ratio (host -. sum lhost layers) host);
        ("sched.sim_cycles", cycles -. sum lcycles layers);
        ("sched.ctx_switches", counter Context_switch);
        ("sched.steals", counter Sched_steal);
        ("sched.migrations", counter Cpu_migration);
        ("gate.entries", counter Nk_enter);
        ("gate.crossing_p50_cycles", fi r0.crossing_p50);
        ("vmmu.pte_writes", counter Pte_write);
        ("vmmu.batches", counter Pte_write_batch);
        ("vmmu.declare_ptp", counter Declare_ptp);
        ("vmmu.remove_ptp", counter Remove_ptp);
        ("vmmu.cr3_loads", counter Load_cr3 +. counter Load_cr3_pcid);
        ("pipe.send_full", fi r0.pipe_full);
        ("domain.denials", fi r0.denials);
        ("domain.teardown_leaks", fi r0.leaks);
        ("deferred.parked", counter Flush_deferred);
        ("deferred.fired", counter Flush_on_reuse);
        ("tlb.hits", hits);
        ("tlb.misses", misses);
        ("tlb.hit_ratio", ratio hits (hits +. misses));
        ("tlb.flush_full", counter Tlb_flush_full);
        ("tlb.flush_asid", counter Tlb_flush_asid);
        ("smp.shootdown_sent", sent);
        ("smp.shootdown_filtered", filtered);
        ("smp.filter_ratio", ratio filtered (sent +. filtered));
        ("smp.coalesced", counter Shootdown_coalesced);
        ("smp.ipi_shootdown", counter Ipi_shootdown);
        ("fd.accept_local", local);
        ("fd.accept_steal", steal);
        ("fd.steal_ratio", ratio steal (local +. steal));
        ("fd.backlog_drops", counter Sock_backlog_drop);
        ("kalloc.slab_hit_ratio", ratio slab_hit (slab_hit +. slab_refill));
        ("syscall.count", counter Syscall);
        ("syscall.sim_cycles_mean", ratio r0.syscall_cycles (fi r0.syscalls));
      ]
  in
  { failures; attempted; failed; values }

(* --- modelcheck --------------------------------------------------- *)

(* A bound to explore and the (states, transitions) it must reach.
   Timed rounds explore [rounds_bound]: short enough that a run holds
   dozens of identical rounds.  [gate_bound], the workload's full
   bound, is exhausted once per run, untimed. *)
let full depth = { Nkcheck.default with depth; vocab = Nkcheck.Full }
let rounds_bound o = if o.tiny then (full 1, (18, 31)) else (full 2, (200, 558))
let gate_bound o = if o.tiny then (full 2, (200, 558)) else (full 3, (1727, 6200))

let check_failures (cfg, (states, transitions)) r =
  let name check = Printf.sprintf "depth-%d-%s" cfg.Nkcheck.depth check in
  List.filter_map
    (fun (check, bad) -> if bad then Some (name check) else None)
    [
      ("counterexamples", r.Nkcheck.rp_counterexamples <> []);
      ("truncated", r.Nkcheck.rp_truncated);
      ("state-count", r.Nkcheck.rp_states <> states);
      ("transition-count", r.Nkcheck.rp_transitions <> transitions);
    ]

(* The checker's peak heap: the mean, over [children] forked processes,
   of the peak heap one check at [bound] reaches.  Most of that heap is
   unswept garbage from rebooted universes, and how much of it the peak
   holds jumps when an allocation early in the process moves by a word
   (a longer --seed argument is enough: depth 3 then peaks at 8.8 MB
   instead of 11.0), so each child first allocates a little more than
   the one before, and the mean over those shifts is what only a change
   to the checker moves.  [None] if a child fails or misses the bound's
   pinned counts. *)
let forked_peak_heap_mb ~children bound =
  let one shift =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let code =
          try
            let pad = Array.make shift 0 in
            let r = Nkcheck.run (fst bound) in
            ignore (Sys.opaque_identity pad);
            if check_failures bound r <> [] then 1
            else begin
              let s = Printf.sprintf "%.17g" (peak_heap_mb ()) in
              ignore (Unix.write_substring wr s 0 (String.length s));
              0
            end
          with _ -> 1
        in
        Unix._exit code
    | pid ->
        Unix.close wr;
        let buf = Buffer.create 32 and chunk = Bytes.create 32 in
        let rec drain () =
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        Fun.protect drain ~finally:(fun () ->
            Unix.close rd;
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> Buffer.clear buf);
        float_of_string_opt (Buffer.contents buf)
  in
  let peaks = List.init children one in
  if List.mem None peaks then None
  else Some (sum Option.get peaks /. fi children)

let run_modelcheck o log =
  let bound = rounds_bound o in
  let heap = forked_peak_heap_mb ~children:6 bound in
  let gate = gate_bound o in
  let exhaustive = Nkcheck.run (fst gate) in
  let probe = Probe.create log (Clock.create ()) in
  let rs =
    rounds o (fun ~traced ->
        (* Set-up: a universe boot plus the full check set on it. *)
        let t0 = Unix.gettimeofday () in
        let boot_failures = Nkcheck.run_checked [] in
        let setup_s = Unix.gettimeofday () -. t0 in
        let report = ref None in
        let w =
          Probe.window probe ~traced (fun () ->
              let r = Nkcheck.run (fst bound) in
              report := Some r;
              {
                Probe.ops = r.Nkcheck.rp_transitions;
                p50 = 0;
                p99 = 0;
                samples = 0;
                events = 0;
                counters = [||];
              })
        in
        (setup_s, boot_failures, w, Option.get !report))
  in
  let setup_s = median (List.map (fun (s, _, _, _) -> s) rs) in
  let boot_failures = List.concat_map (fun (_, f, _, _) -> f) rs in
  let windows = List.map (fun (_, _, w, _) -> w) rs in
  let reports = List.map (fun (_, _, _, r) -> r) rs in

  let failures =
    List.sort_uniq compare
      (List.concat_map (check_failures bound) reports
      @ check_failures gate exhaustive
      @ (if boot_failures = [] then [] else [ "boot-checks" ])
      @ if heap = None then [ "heap-probe" ] else [])
  in
  let attempted =
    List.fold_left (fun a r -> a + r.Nkcheck.rp_transitions) 0 (exhaustive :: reports)
  in
  let failed =
    List.fold_left
      (fun a r -> a + List.length r.Nkcheck.rp_counterexamples)
      (List.length failures) (exhaustive :: reports)
  in
  let values =
    host_values ~setup_s
      ~peak_heap_mb:(Option.value heap ~default:0.)
      (List.map (fun w -> [ w ]) windows)
    @ [
        ("ops_failed_frac", ratio (fi failed) (fi attempted));
        ("check.states", fi exhaustive.Nkcheck.rp_states);
        ("check.transitions", fi exhaustive.Nkcheck.rp_transitions);
        (* Share of checking time the per-transition fixed cost (a boot
           plus the full check set, timed alone) accounts for. *)
        ( "check.fixed_share",
          median
            (List.map (fun w -> ratio (setup_s *. fi w.Probe.w_ops) w.Probe.w_host) windows)
        );
      ]
  in
  { failures; attempted; failed; values }

(* --- main --------------------------------------------------------- *)

(* Where a traced run writes its spans: the build directory the
   benchmark's runner uses, relative to the checkout root. *)
let spans_dir = ".bench_build"

let usage =
  "nkbench --workload tenants|c10k|modelcheck --seed N --seconds S --trace 0|1 \
   [--tiny]"

let parse argv =
  let rec go o = function
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as b) :: rest -> go { o with trace = b = "1" } rest
    | "--tiny" :: rest -> go { o with tiny = true } rest
    | [] -> o
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go
    { workload = ""; seed = 42; seconds = 10.; trace = false; tiny = false }
    (List.tl (Array.to_list argv))

let () =
  let o =
    try parse Sys.argv
    with Failure e | Invalid_argument e ->
      prerr_endline (e ^ "\nusage: " ^ usage);
      exit 2
  in
  let log = Probe.create_log (if o.trace then 16 else 0) in
  let r =
    match o.workload with
    | "tenants" -> run_serving o log (if o.tiny then Serve.tenants_tiny else Serve.tenants)
    | "c10k" -> run_serving o log (if o.tiny then Serve.c10k_tiny else Serve.c10k)
    | "modelcheck" -> run_modelcheck o log
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\nusage: " ^ usage);
        exit 2
  in
  Printf.printf "host: nproc=%d cpu=%S ocaml=%s\n"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version;
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%b\n" o.workload o.seed
    o.seconds o.trace;
  List.iter (fun f -> Printf.printf "GATE FAILED: %s\n" f) r.failures;
  if o.trace then begin
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    let path = Filename.concat spans_dir ("spans-" ^ o.workload ^ ".json") in
    Probe.write_spans log path;
    Printf.printf "spans: %s\n" path
  end;
  let e2e = select end_to_end r.values and layers = select per_layer r.values in
  print_table "end-to-end:" e2e;
  print_table "per-layer:" layers;
  print_result ~correct:(r.failures = []) ~attempted:r.attempted ~failed:r.failed
    (if o.trace then layers else e2e);
  if r.failures <> [] then exit 1
