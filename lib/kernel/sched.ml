open Nkhw

type t = {
  k : Kernel.t;
  queues : Ktypes.pid Queue.t array; (* index = CPU id; O(1) deque ops *)
  affinity : (Ktypes.pid, int) Hashtbl.t; (* allowed-CPU bitmask; absent = all *)
  credits : (int, int ref) Hashtbl.t; (* domain -> dispatches left this epoch *)
  mutable credit_quantum : int; (* 0 = credits off (single-tenant default) *)
}

let ncpus t = Array.length t.queues
let all_mask n = (1 lsl n) - 1

let allowed t pid cpu =
  let mask =
    Option.value (Hashtbl.find_opt t.affinity pid) ~default:(all_mask (ncpus t))
  in
  mask land (1 lsl cpu) <> 0

let create k =
  let n = Smp.cpu_count k.Kernel.smp in
  let t =
    {
      k;
      queues = Array.init n (fun _ -> Queue.create ());
      affinity = Hashtbl.create 16;
      credits = Hashtbl.create 8;
      credit_quantum = 0;
    }
  in
  let boot_cpu = Smp.active k.Kernel.smp in
  (match k.Kernel.running.(boot_cpu) with
  | Some pid -> Queue.push pid t.queues.(boot_cpu)
  | None -> ());
  t

let queue_of t cpu = List.of_seq (Queue.to_seq t.queues.(cpu))
let queue t = List.concat (List.init (ncpus t) (fun cpu -> queue_of t cpu))
let queued t pid = Array.exists (fun q -> Queue.fold (fun acc p -> acc || p = pid) false q) t.queues

(* Lowest-id CPU with the shortest queue among those the affinity mask
   allows — ascending scan with strict improvement keeps placement
   deterministic. *)
let least_loaded t pid =
  let best = ref None in
  for cpu = 0 to ncpus t - 1 do
    if allowed t pid cpu then begin
      let len = Queue.length t.queues.(cpu) in
      match !best with
      | Some (_, blen) when blen <= len -> ()
      | _ -> best := Some (cpu, len)
    end
  done;
  Option.map fst !best

let add_on t pid cpu =
  if not (queued t pid) then Queue.push pid t.queues.(cpu)

let add t pid =
  if not (queued t pid) then
    match least_loaded t pid with
    | Some cpu -> Queue.push pid t.queues.(cpu)
    | None -> () (* affinity excludes every CPU: unschedulable *)

let remove_from_queues t pid =
  Array.iter
    (fun q ->
      let keep = Queue.fold (fun acc p -> if p = pid then acc else p :: acc) [] q in
      Queue.clear q;
      List.iter (fun p -> Queue.push p q) (List.rev keep))
    t.queues

let remove t pid =
  remove_from_queues t pid;
  Hashtbl.remove t.affinity pid

let set_affinity t pid mask =
  Hashtbl.replace t.affinity pid (mask land all_mask (ncpus t));
  (* If the process now sits on a forbidden queue, re-place it. *)
  let misplaced = ref false in
  Array.iteri
    (fun cpu q ->
      if (not (allowed t pid cpu)) && Queue.fold (fun acc p -> acc || p = pid) false q
      then misplaced := true)
    t.queues;
  if !misplaced then begin
    remove_from_queues t pid;
    add t pid
  end

let affinity_of t pid =
  Option.value (Hashtbl.find_opt t.affinity pid) ~default:(all_mask (ncpus t))

let alive t pid =
  match Kernel.proc t.k pid with
  | Some p -> p.Proc.pstate = Proc.Running
  | None -> false

(* --- per-domain run-queue credits --------------------------------- *)

(* Deficit round-robin across tenant domains: with a quantum set, each
   domain may take at most [quantum] dispatches per epoch on a CPU
   while any co-queued domain still holds credit, so a shootdown-storm
   or accept-flood tenant cannot starve its peers.  With the quantum
   at 0 (the default) dispatch order is exactly the classic rotation —
   single-tenant runs are untouched. *)

let set_domain_credits t ~quantum =
  if quantum < 0 then invalid_arg "Sched.set_domain_credits";
  t.credit_quantum <- quantum;
  Hashtbl.reset t.credits

let domain_of t pid =
  match Kernel.proc t.k pid with
  | Some p -> Kernel.proc_domain p
  | None -> 0

let credit_of t domain =
  match Hashtbl.find_opt t.credits domain with
  | Some c -> c
  | None ->
      let c = ref t.credit_quantum in
      Hashtbl.add t.credits domain c;
      c

let credit_refill t =
  Hashtbl.iter (fun _ c -> c := t.credit_quantum) t.credits

(* Rotate [q] until its front belongs to a domain with credit left; if
   a full lap finds every queued domain exhausted, the epoch ends and
   all credits refill.  Charges the dispatched domain one credit. *)
let credit_select t q =
  if t.credit_quantum > 0 && Queue.length q > 1 then begin
    let len = Queue.length q in
    let rec rotate i =
      if i >= len then begin
        credit_refill t;
        Machine.count_ev t.k.Kernel.machine Nktrace.Sched_epoch
      end
      else if !(credit_of t (domain_of t (Queue.peek q))) > 0 then ()
      else begin
        Queue.push (Queue.pop q) q;
        rotate (i + 1)
      end
    in
    rotate 0
  end;
  if t.credit_quantum > 0 then begin
    let c = credit_of t (domain_of t (Queue.peek q)) in
    if !c > 0 then decr c
  end

(* Pull work from the most-loaded peer (lowest id breaks ties).  Only
   queues holding more than one process are victims — a length-one
   queue is just that CPU's running process — and the stolen pid must
   be allowed on the thief and must not be the victim's running
   process. *)
let try_steal t thief =
  let stealable victim p =
    allowed t p thief && Some p <> t.k.Kernel.running.(victim)
  in
  let best = ref None in
  for victim = 0 to ncpus t - 1 do
    if victim <> thief then begin
      let len = Queue.length t.queues.(victim) in
      let has_candidate =
        len > 1
        && Queue.fold (fun acc p -> acc || stealable victim p) false
             t.queues.(victim)
      in
      match !best with
      | Some (_, blen) when blen >= len -> ()
      | _ -> if has_candidate then best := Some (victim, len)
    end
  done;
  match !best with
  | None -> None
  | Some (victim, _) ->
      let q = t.queues.(victim) in
      let rec pull acc =
        if Queue.is_empty q then (List.rev acc, None)
        else
          let p = Queue.pop q in
          if stealable victim p then (List.rev acc, Some p) else pull (p :: acc)
      in
      let skipped, stolen = pull [] in
      (* put the skipped prefix back in order *)
      let rest = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.iter (fun p -> Queue.push p q) (skipped @ rest);
      (match stolen with
      | Some _ ->
          Machine.count_ev t.k.Kernel.machine Nktrace.Sched_steal
      | None -> ());
      stolen

(* Rotate CPU [cpu]'s queue and dispatch its new front — the same
   semantics the old global scheduler had, now per CPU: dead heads are
   dropped, the context-switch cost is charged only when the front
   actually changes hands, and the address-space load goes through the
   ASID/PCID path so the coherence oracle audits every move. *)
let rec yield_on t cpu =
  (* Make [cpu] the machine's view first (no-op under the executor,
     which has already activated it) so the dispatch below lands in
     the right running slot. *)
  Smp.activate t.k.Kernel.smp cpu;
  let q = t.queues.(cpu) in
  if Queue.is_empty q then
    match try_steal t cpu with
    | Some pid ->
        Queue.push pid q;
        yield_on t cpu
    | None -> Error Ktypes.Esrch
  else begin
    let pid = Queue.pop q in
    if not (alive t pid) then begin
      Hashtbl.remove t.affinity pid;
      yield_on t cpu
    end
    else begin
      Queue.push pid q;
      credit_select t q;
      let next = Queue.peek q in
      if Some next <> t.k.Kernel.running.(cpu) && alive t next then begin
        Machine.charge t.k.Kernel.machine
          t.k.Kernel.machine.Machine.costs.Costs.ctx_switch;
        match Kernel.switch_to t.k next with
        | Ok () -> Ok next
        | Error _ -> Error Ktypes.Esrch
      end
      else begin
        (* Same front, same CPU: no context switch — but domain
           identity is machine-global state like CR3, and a peer CPU's
           dispatch may have entered another tenant's domain in
           between.  Re-assert it (a no-op when already current), or
           this quantum would run under the wrong tenant's authority. *)
        (match Kernel.proc t.k next with
        | Some p -> ignore (Kernel.enter_vm_domain t.k p.Proc.vm)
        | None -> ());
        Ok next
      end
    end
  end

let yield t = yield_on t (Smp.active t.k.Kernel.smp)

(* Explicit migration: move the process's queue slot and tell the
   target CPU to reschedule.  The IPI guarantees the target drains its
   mailbox (shootdown acknowledgements included) before the migrated
   process first runs there — the executor drains on every step. *)
let migrate t pid ~to_cpu =
  if to_cpu < 0 || to_cpu >= ncpus t then invalid_arg "Sched.migrate";
  if not (allowed t pid to_cpu) then Error Ktypes.Einval
  else begin
    remove_from_queues t pid;
    Queue.push pid t.queues.(to_cpu);
    if to_cpu <> Smp.active t.k.Kernel.smp then
      Smp.send_ipi t.k.Kernel.smp ~target:to_cpu Smp.Reschedule;
    Ok ()
  end

let run_until t ~steps f =
  let rec go n =
    if n >= steps then n
    else
      match yield t with
      | Error _ -> n
      | Ok pid -> if f pid then go (n + 1) else n + 1
  in
  go 0

let total_queued t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let run_smp t ~policy ~steps f =
  let exec = Smp.Executor.create t.k.Kernel.smp policy in
  Smp.Executor.run exec ~max_steps:steps
    ~quantum:(fun cpu ->
      match yield_on t cpu with
      | Error _ -> if total_queued t = 0 then `Halted else `Idle
      | Ok pid -> if f ~cpu pid then `Ran else `Halted)
    ()
