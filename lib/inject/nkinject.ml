type site =
  | Frame_exhausted
  | Pheap_exhausted
  | Asid_exhausted
  | Pte_write_error
  | Pte_batch_error
  | Gate_denied
  | Ipi_drop
  | Ipi_delay
  | Sys_enomem
  | Sys_efault
  | Accept_overflow

let all_sites =
  [
    Frame_exhausted;
    Pheap_exhausted;
    Asid_exhausted;
    Pte_write_error;
    Pte_batch_error;
    Gate_denied;
    Ipi_drop;
    Ipi_delay;
    Sys_enomem;
    Sys_efault;
    Accept_overflow;
  ]

let nsites = List.length all_sites

let index = function
  | Frame_exhausted -> 0
  | Pheap_exhausted -> 1
  | Asid_exhausted -> 2
  | Pte_write_error -> 3
  | Pte_batch_error -> 4
  | Gate_denied -> 5
  | Ipi_drop -> 6
  | Ipi_delay -> 7
  | Sys_enomem -> 8
  | Sys_efault -> 9
  | Accept_overflow -> 10

let site_name = function
  | Frame_exhausted -> "frame"
  | Pheap_exhausted -> "pheap"
  | Asid_exhausted -> "asid"
  | Pte_write_error -> "pte-write"
  | Pte_batch_error -> "pte-batch"
  | Gate_denied -> "gate"
  | Ipi_drop -> "ipi-drop"
  | Ipi_delay -> "ipi-delay"
  | Sys_enomem -> "sys-enomem"
  | Sys_efault -> "sys-efault"
  | Accept_overflow -> "accept"

let site_of_name s =
  List.find_opt (fun site -> site_name site = s) all_sites

(* Ring marks for fired injections, built once: the count itself lives
   in [injected]. *)
let mark_names =
  Array.of_list (List.map (fun s -> "inject_" ^ site_name s) all_sites)

type t = {
  seed : int;
  rate : float;
  mask : int; (* bit per site; disabled sites never draw *)
  threshold : int; (* fire when draw mod resolution < threshold *)
  mutable prng : int;
  mutable armed : bool;
  injected : int array;
  decisions : int array;
  mutable trace : Nktrace.t option;
}

(* Golden-ratio multiply so nearby seeds diverge immediately; the
   xorshift never escapes 0, so map it away. *)
let scramble seed =
  let state = ((seed * 0x9E3779B9) lxor 0x5DEECE66D) land max_int in
  if state = 0 then 0x2545F4914F6CDD1D else state

let xorshift x =
  let x = (x lxor (x lsl 13)) land max_int in
  let x = x lxor (x lsr 7) in
  (x lxor (x lsl 17)) land max_int

(* The draw compares the low [resolution_bits] of the xorshift state
   against an integer threshold, so the fire/no-fire decision is exact
   integer arithmetic — identical on every platform for a given seed. *)
let resolution_bits = 20
let resolution = 1 lsl resolution_bits

let create ?(sites = all_sites) ~seed ~rate () =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  let mask = List.fold_left (fun m s -> m lor (1 lsl index s)) 0 sites in
  {
    seed;
    rate;
    mask;
    threshold = int_of_float (rate *. float_of_int resolution);
    prng = scramble seed;
    armed = true;
    injected = Array.make nsites 0;
    decisions = Array.make nsites 0;
    trace = None;
  }

let seed t = t.seed
let rate t = t.rate
let sites t = List.filter (fun s -> t.mask land (1 lsl index s) <> 0) all_sites
let armed t = t.armed
let set_armed t b = t.armed <- b
let set_trace t tr = t.trace <- tr

let next_rand t =
  t.prng <- xorshift t.prng;
  t.prng

let fire t s =
  if (not t.armed) || t.mask land (1 lsl index s) = 0 then false
  else begin
    let i = index s in
    t.decisions.(i) <- t.decisions.(i) + 1;
    let hit = next_rand t land (resolution - 1) < t.threshold in
    if hit then begin
      t.injected.(i) <- t.injected.(i) + 1;
      match t.trace with
      | None -> ()
      | Some tr -> Nktrace.mark tr mark_names.(i)
    end;
    hit
  end

let fire_opt o s = match o with None -> false | Some t -> fire t s
let injected t s = t.injected.(index s)
let decisions t s = t.decisions.(index s)
let total_injected t = Array.fold_left ( + ) 0 t.injected
let counts t = List.map (fun s -> (site_name s, injected t s)) (sites t)
