open Nkhw

(** De-privileging scanner (paper sections 3.5 and 5.2).

    Lifetime kernel code integrity requires that {e no} protected
    instruction — mov-to-CR or WRMSR — exist anywhere in outer-kernel
    code, {e including at unaligned instruction boundaries}: an
    attacker with control of RIP can jump into the middle of an
    instruction and execute bytes that happen to encode one.

    [scan] finds every occurrence; [deprivilege] rewrites a program
    until none remain, using the paper's three elimination techniques:
    adjusting alignment with nops (for branch displacements),
    rewriting arithmetic expressions, and splitting constants into
    pairs combined at run time. *)

type finding = {
  offset : int;  (** byte offset of the protected-instruction pattern *)
  kind : Insn.protected_kind;
  explicit : bool;
      (** the pattern sits at an instruction boundary and {e is} the
          instruction there — genuine use of a protected instruction *)
}

val scan : bytes -> finding list
val is_clean : bytes -> bool

type summary = {
  total : int;
  explicit_count : int;
  implicit_cr0 : int;
  implicit_cr_other : int;
  implicit_wrmsr : int;
}

val summarize : finding list -> summary
(** The classification reported in the paper's section 5.2 (they found
    2 implicit CR0 writes and 38 implicit wrmsr occurrences). *)

type rewrite_stats = {
  iterations : int;
  constants_split : int;
  nops_inserted : int;
  exprs_rewritten : int;
}

val deprivilege :
  Insn.asm_item list ->
  (Insn.asm_item list * rewrite_stats, string) result
(** Rewrite the program until its assembly contains no protected
    patterns.  Fails if the program contains an {e explicit} protected
    instruction (those may only live in the nested kernel) or an
    implicit occurrence in an instruction the rewriter cannot
    transform. *)

val pp_summary : Format.formatter -> summary -> unit
