open Nkhw
open Outer_kernel

type result = {
  seed : int;
  rate : float;
  ops : int;
  completed : int;
  degraded : int;
  injected : (string * int) list;
  total_injected : int;
  escaped_exceptions : int;
  escapes : string list;
  coherence_violations : int;
  invariant_failures : int;
  flush_deferred : int;  (** unmaps that took the lazy path *)
  flush_drained : int;  (** deferred records actually flushed *)
  deferred_live : int;  (** records still queued after the final drain *)
  cycles : int;
}

(* Deterministic op-schedule PRNG — the same xorshift family as the
   SMP executor and the injector, but a distinct stream: the schedule
   of operations must not move when injection sites or rates change,
   or two runs stop being comparable. *)
let mix_seed seed = ((seed * 0x9E3779B9) lxor 0x5DEECE66D) land max_int

let next_rand state =
  let x = !state in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  state := x;
  x

let run ?(ops = 20000) ?(rate = 0.01) ?(sites = Nkinject.all_sites)
    ?(frames = 4096) ~seed () =
  let inj = Nkinject.create ~sites ~seed ~rate () in
  let k =
    Os.boot ~frames ~coherence:true ~trace:true ~inject:inj Config.Perspicuos
  in
  let m = k.Kernel.machine in
  let nk = Option.get k.Kernel.nk in
  let p = Kernel.current_proc k in
  let completed = ref 0 and degraded = ref 0 in
  let escaped = ref 0 and escapes = ref [] in
  let violations = ref 0 in
  (* The working set comes up fault-free: the soak measures behaviour
     under injection, not whether setup happens to survive it. *)
  Nkinject.set_armed inj false;
  ignore (Syscalls.execve k p ~text_pages:20 ~data_pages:12 "/bin/sh");
  for i = 1 to 4 do
    ignore (Kernel.touch_user k p (Vmspace.user_stack_top - (i * 256)) Fault.Write)
  done;
  Nkinject.set_armed inj true;
  (* Every op must end in exactly one of three ways: a value, an
     errno, or — the failure the soak exists to catch — an escaped
     exception.  Oracle violations are counted separately so a stale
     translation shows up as a coherence bug, not a generic escape. *)
  let guard f =
    match f () with
    | Ok _ -> incr completed
    | Error (_ : Ktypes.errno) -> incr degraded
    | exception Coherence.Violation vs -> violations := !violations + List.length vs
    | exception e ->
        incr escaped;
        if List.length !escapes < 8 then escapes := Printexc.to_string e :: !escapes
  in
  let fork_op () =
    match Syscalls.fork k p with
    | Error e -> Error e
    | Ok child_pid -> (
        match Kernel.proc k child_pid with
        | None -> Ok 0
        | Some child ->
            let switched = Result.is_ok (Kernel.switch_to k child_pid) in
            (* If the exit syscall itself is chosen for injection the
               child must still die, or leaked processes would pile up
               across the soak; the direct path reaps it. *)
            (match Syscalls.exit_ k child 0 with
            | Ok _ -> ()
            | Error _ -> Kernel.exit_proc k child 0);
            if switched then ignore (Kernel.switch_to k p.Proc.pid);
            ignore (Syscalls.wait k p);
            Ok 0)
  in
  let mmap_op ~pages ~rw ~touch () =
    match Syscalls.mmap k p ~len:(pages * Addr.page_size) ~rw ~populate:true ()
    with
    | Error e -> Error e
    | Ok va ->
        (if touch && rw then
           match Kernel.touch_user k p va Fault.Write with
           | Ok () | Error _ -> ());
        Syscalls.munmap k p va
  in
  let open_close () =
    match Syscalls.open_ k p "/bin/sh" with
    | Error e -> Error e
    | Ok fd -> Syscalls.close k p fd
  in
  let sig_op () =
    match Syscalls.sigaction k p 10 "h" with
    | Error e -> Error e
    | Ok _ -> Syscalls.kill k p p.Proc.pid 10
  in
  (* A protected-heap cycle, so the pheap and gate sites see traffic
     the POSIX mix alone would never generate. *)
  let nk_op () =
    match
      Nested_kernel.Api.nk_alloc nk ~size:96 Nested_kernel.Policy.unrestricted
    with
    | Error _ -> Error Ktypes.Enomem
    | Ok (wd, _) -> (
        match Nested_kernel.Api.nk_free nk wd with
        | Ok () -> Ok 0
        | Error _ -> Error Ktypes.Enomem)
  in
  let state = ref (let s = mix_seed (seed lxor 0x5bd1e995) in
                   if s = 0 then 0x2545F4914F6CDD1D else s)
  in
  for _ = 1 to ops do
    guard
      (match next_rand state mod 11 with
      | 0 | 1 | 2 -> (fun () -> Syscalls.getpid k p)
      | 3 | 4 -> open_close
      | 5 -> mmap_op ~pages:8 ~rw:true ~touch:true
      | 6 -> mmap_op ~pages:16 ~rw:false ~touch:false
      | 7 -> sig_op
      | 8 -> nk_op
      | _ -> fork_op)
  done;
  (* Disarm for the final audits: they judge the state the faults left
     behind, and must not themselves be perturbed. *)
  Nkinject.set_armed inj false;
  (* The close-out's tail (the oracle here is the raising one boot
     installed): the drain leaves the final audit a fully settled
     machine, where every lazily deferred flush must by now have been
     issued (deferred = drained), or the last batch was lost. *)
  let swept, invariant_failures = Harness.settle nk in
  violations := !violations + swept;
  let counter ev = Nktrace.counter_value m.Machine.trace ev in
  {
    seed;
    rate;
    ops;
    completed = !completed;
    degraded = !degraded;
    injected = Nkinject.counts inj;
    total_injected = Nkinject.total_injected inj;
    escaped_exceptions = !escaped;
    escapes = List.rev !escapes;
    coherence_violations = !violations;
    invariant_failures;
    flush_deferred = counter Nktrace.Flush_deferred;
    flush_drained = counter Nktrace.Flush_on_reuse;
    deferred_live = Nested_kernel.Api.nk_deferred_live nk;
    cycles = Clock.cycles m.Machine.clock;
  }

let survived r =
  r.escaped_exceptions = 0 && r.coherence_violations = 0
  && r.invariant_failures = 0
  && r.flush_deferred = r.flush_drained
  && r.deferred_live = 0

let to_table r =
  {
    Stats.title = "Fault soak: graceful degradation under injected faults";
    columns = [ "metric"; "value" ];
    rows =
      [
        [ "ops"; string_of_int r.ops ];
        [ "completed"; string_of_int r.completed ];
        [ "degraded (errno)"; string_of_int r.degraded ];
        [ "faults injected"; string_of_int r.total_injected ];
        [ "escaped exceptions"; string_of_int r.escaped_exceptions ];
        [ "coherence violations"; string_of_int r.coherence_violations ];
        [ "invariant failures"; string_of_int r.invariant_failures ];
        [
          "deferred flushes (queued/drained)";
          Printf.sprintf "%d/%d" r.flush_deferred r.flush_drained;
        ];
        [ "cycles"; string_of_int r.cycles ];
      ]
      @ List.filter_map
          (fun (site, n) ->
            if n = 0 then None
            else Some [ "  injected@" ^ site; string_of_int n ])
          r.injected;
    notes =
      [
        Printf.sprintf "seed %d, per-site rate %.3f; survived: %b" r.seed
          r.rate (survived r);
      ];
  }
