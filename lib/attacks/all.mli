open Outer_kernel

(** The full attack registry, used by examples, tests and the
    evaluation harness. *)

val attacks : Attack.t list

val expected_defended : Config.t -> string -> bool
(** Ground truth: is this attack supposed to be stopped (blocked,
    detected or crashed-harmless) under the given configuration?  The
    test suite asserts the registry matches this matrix; note that the
    base nested kernel intentionally does {e not} stop the
    policy-specific attacks (syscall hooking without the write-once
    table, DKOM without the shadow list) — exactly as in the paper. *)

val run : Config.t -> Attack.t -> Attack.outcome * bool
(** One cell of the matrix: boot a fresh kernel in [config], run the
    attack on it, and return its outcome and whether that outcome
    matches {!expected_defended}. *)
