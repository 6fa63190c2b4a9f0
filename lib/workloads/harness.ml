open Outer_kernel
module Api = Nested_kernel.Api

let default_seed = 42

let env_seed () =
  match Sys.getenv_opt "NKSIM_SCHED_SEED" with
  | Some s -> Option.value (int_of_string_opt s) ~default:default_seed
  | None -> default_seed

type t = { nk : Api.t option; mutable violations : int }

let arm (k : Kernel.t) =
  let t = { nk = k.Kernel.nk; violations = 0 } in
  (match t.nk with
  | Some nk ->
      (* Counting mode: a violation is tallied, not raised, so the run
         goes on and reports it.  The oracle never charges simulated
         cycles, so a checked run reproduces the unchecked numbers. *)
      Api.Diagnostics.Coherence.enable
        ~on_violation:(fun vs -> t.violations <- t.violations + List.length vs)
        nk
  | None -> ());
  t

let settle nk =
  Api.nk_flush_all_deferred nk;
  let swept =
    List.length (Api.Diagnostics.Coherence.snapshot ~op:"close-out" nk)
  in
  (swept, List.length (Api.audit nk))

let close t =
  match t.nk with
  | None -> (t.violations, 0)
  | Some nk ->
      let swept, failures = settle nk in
      t.violations <- t.violations + swept;
      (t.violations, failures)

let violations t = t.violations

let wallclock cycles host_secs =
  if host_secs > 0. then float_of_int cycles /. host_secs else 0.

let unmet bounds =
  List.filter_map (fun (ok, msg) -> if ok then None else Some msg) bounds

let zeros at counts =
  List.map
    (fun (name, n) -> (n = 0, at (Printf.sprintf "%s = %d" name n)))
    counts

let bound name value ok expected =
  ( Option.fold ~none:false ~some:ok value,
    Printf.sprintf "%s is %s, expected %s" name
      (Option.fold ~none:"missing" ~some:string_of_int value)
      expected )
