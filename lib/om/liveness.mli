(** Interprocedural live-register analysis (the optimization the paper
    leaves as future work: "OM can do interprocedural live variable
    analysis... Only the live registers need to be saved and restored to
    preserve the state of the program execution").

    Backward over each procedure's CFG, with return-liveness propagated
    over the call graph to a fixpoint: the registers live at a
    procedure's returns are those observed live after its call sites,
    unioned over all callers.  This keeps the analysis sound for
    hand-written routines that return extra results outside the calling
    standard (the runtime's [__divqu] leaves the remainder in [$3]) — a
    simple convention-based rule would declare such registers dead.

    Remaining conservatisms:

    - a call is assumed to read all argument registers and [$pv] and to
      clobber every caller-save register (so a caller must not carry a
      caller-save value of its own across a call — true of all
      ABI-respecting code);
    - procedures whose address is taken are callable from anywhere:
      everything is live at their returns;
    - indirect jumps and PAL calls make every register live. *)

val compute : Ir.program -> (int, Alpha.Regset.t) Hashtbl.t
(** Per original instruction address, the registers live {e before} that
    instruction executes.

    Worklist-driven: each procedure's CFG is preprocessed once (block
    gen/kill sets, successor/predecessor index arrays, boundary
    classification) and propagation revisits only blocks whose successors
    changed, warm-starting every interprocedural round from the previous
    round's solution. *)

val live_before : (int, Alpha.Regset.t) Hashtbl.t -> int -> Alpha.Regset.t
(** Lookup; unknown addresses report every register live. *)

val live_after :
  Ir.program -> (int, Alpha.Regset.t) Hashtbl.t -> int -> Alpha.Regset.t
(** [live_after prog table pc]: the registers live once the instruction at
    [pc] has executed, where an [After] stub runs.  That is the next
    instruction's live-before set when it belongs to the same procedure,
    and every register otherwise (the rule never looks across a procedure
    boundary). *)

val all_regs : Alpha.Regset.t
