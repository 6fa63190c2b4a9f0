open Outer_kernel
module Api = Nested_kernel.Api

let default_seed = 42

let env_seed () =
  match Sys.getenv_opt "NKSIM_SCHED_SEED" with
  | Some s -> Option.value (int_of_string_opt s) ~default:default_seed
  | None -> default_seed

type t = { nk : Api.t option; oracle : bool; mutable violations : int }

let arm ?(oracle = true) (k : Kernel.t) =
  let t = { nk = k.Kernel.nk; oracle; violations = 0 } in
  (match t.nk with
  | Some nk when oracle ->
      (* Counting mode: a violation is tallied, not raised, so the run
         goes on and reports it.  The oracle never charges simulated
         cycles, so a checked run reproduces the unchecked numbers. *)
      Api.Diagnostics.Coherence.enable
        ~on_violation:(fun vs -> t.violations <- t.violations + List.length vs)
        nk
  | _ -> ());
  t

let settle ?(sweep = true) nk =
  Api.nk_flush_all_deferred nk;
  let swept =
    if sweep then
      List.length (Api.Diagnostics.Coherence.snapshot ~op:"close-out" nk)
    else 0
  in
  (swept, List.length (Api.audit nk))

let close t =
  match t.nk with
  | None -> (t.violations, 0)
  | Some nk ->
      let swept, failures = settle ~sweep:t.oracle nk in
      t.violations <- t.violations + swept;
      (t.violations, failures)

let violations t = t.violations
