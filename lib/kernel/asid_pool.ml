open Nkhw

(* Slots 1..size-1 are carved into [domains] contiguous partitions;
   partition p of a multi-domain pool serves the domains with
   [d mod domains = p].  With one partition (the default) the layout,
   stamp sequence and clock hand are exactly the old shared pool. *)
type t = {
  machine : Machine.t;
  slots : int array; (* stamp owning each ASID; 0 = free *)
  mutable next_stamp : int;
  domains : int; (* partition count *)
  bounds : (int * int) array; (* per-partition inclusive slot range *)
  hands : int array; (* per-partition clock hand *)
  mutable inject : Nkinject.t option;
}

let kernel_asid = 0

let create ?(size = 8) ?(domains = 1) machine =
  if size < 2 then invalid_arg "Asid_pool.create: size must be at least 2";
  if domains < 1 then invalid_arg "Asid_pool.create: domains must be positive";
  let usable = size - 1 in
  let per = usable / domains in
  let bounds =
    Array.init domains (fun p ->
        if per = 0 then
          (* More partitions than slots: the first [usable] partitions
             get one slot each, the rest are empty and fail closed. *)
          if p < usable then (1 + p, 1 + p) else (1, 0)
        else
          let lo = 1 + (p * per) in
          let hi = if p = domains - 1 then size - 1 else lo + per - 1 in
          (lo, hi))
  in
  {
    machine;
    slots = Array.make size 0;
    next_stamp = 1;
    domains;
    bounds;
    hands = Array.map fst bounds;
    inject = None;
  }

let size t = Array.length t.slots
let partitions t = t.domains
let set_inject t inj = t.inject <- inj
let partition_of t domain = if t.domains <= 1 then 0 else domain mod t.domains

let partition_range t ~domain =
  let lo, hi = t.bounds.(partition_of t domain) in
  if hi < lo then None else Some (lo, hi)

let alloc ?(domain = 0) t =
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  let p = partition_of t domain in
  let lo, hi = t.bounds.(p) in
  if hi < lo then
    (* Empty partition: never hand out a tag from a peer's range — the
       shared-tag leak this pool exists to prevent.  Fail closed. *)
    None
  else begin
    let rec find i =
      if i > hi then None else if t.slots.(i) = 0 then Some i else find (i + 1)
    in
    (* An injected exhaustion pretends every slot is taken, forcing the
       recycle path (flush + steal) that a busy system only reaches
       under real ASID pressure. *)
    let found =
      if Nkinject.fire_opt t.inject Nkinject.Asid_exhausted then None
      else find lo
    in
    let asid =
      match found with
      | Some a -> a
      | None ->
          (* Steal the slot under this partition's clock hand — never a
             peer partition's.  The previous owner's stamp stops
             validating, and the ASID's stale translations are flushed
             — on every CPU still resident for the tag, not just this
             one — before it serves a new address space. *)
          let a = t.hands.(p) in
          t.hands.(p) <- (if a + 1 > hi then lo else a + 1);
          Machine.shootdown_asid t.machine ~asid:a;
          Machine.count_ev t.machine Nktrace.Asid_recycle;
          a
    in
    t.slots.(asid) <- stamp;
    Some (asid, stamp)
  end

let valid t ~asid ~stamp =
  asid > 0 && asid < Array.length t.slots && stamp <> 0 && t.slots.(asid) = stamp

let free t ~asid ~stamp = if valid t ~asid ~stamp then t.slots.(asid) <- 0
