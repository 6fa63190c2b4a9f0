(** Instruction interpreter.

    Executes machine code (gates, attack shellcode, scanned binaries)
    on a {!Machine.t}, with faithful fault semantics:

    - every fetch, load and store goes through the MMU with the CPU's
      current ring and the machine's control-register state, so a
      supervisor store to a read-only page faults iff CR0.WP is set;
    - an instruction is decoded from a fetch window of up to 10 bytes
      at RIP.  Each page the window touches is translated once, with
      execute permission, and its bytes are read from the frame that
      page maps, so an instruction straddling two pages reads the
      second page's frame, wherever it is.  The window ends at the
      first page that faults: a short instruction at the end of a page
      runs when the next page is unmapped, a straddling one decodes
      truncated and raises #UD.  Only the first page's translation is
      charged cycles; each page's TLB miss is counted;
    - faults and external interrupts are delivered through the IDT:
      RFLAGS and RIP are pushed on the current stack, IF is cleared and
      control transfers to the handler (instruction-restart semantics
      for faults);
    - a fault that cannot be delivered (no IDT, unreadable IDT entry,
      null handler) stops execution with [Stopped_fault] — the moral
      equivalent of a triple fault.

    Higher-level kernel logic is OCaml; machine code hands control back
    to it via the [Callout] instruction. *)

type stop =
  | Halted  (** HLT executed *)
  | Callout of int  (** control handed back to OCaml code *)
  | Stopped_fault of Fault.t  (** undeliverable fault: machine wedged *)
  | Fuel_exhausted

val run : ?fuel:int -> Machine.t -> stop
(** Execute from the CPU's current RIP until a stop condition.  [fuel]
    bounds the instruction count (default 1_000_000). *)

val deliver_trap :
  Machine.t -> vector:int -> fault:Fault.t option -> (unit, Fault.t) result
(** Deliver a trap as the hardware would: look up the handler in the
    IDT, push RFLAGS and the interrupted RIP on the current stack,
    clear IF, and jump.  Records the event in [machine.last_trap]. *)

val pp_stop : Format.formatter -> stop -> unit
