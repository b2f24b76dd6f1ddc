(** Machine-code generation for instrumentation sites and wrapper
    routines (paper §4, "Inserting Procedure Calls" and "Reducing
    Procedure Call Overhead").

    A {e site stub} allocates stack space, saves exactly the registers the
    site itself clobbers (the return-address register, the argument
    registers it writes, and an FP scratch when a floating branch
    condition is materialised), marshals the arguments per the calling
    standard, and calls the target.  Register operands that were saved are
    re-read from their stack slots, so REGV and EffAddrValue always see
    the application's uninstrumented values — including [$sp], which is
    reported with the stub's own frame subtracted out.

    A {e wrapper routine} saves the remaining caller-save registers that
    the analysis procedure's dataflow summary says may be modified, calls
    the analysis procedure, restores and returns. *)

type target = unit -> int
(** Absolute address of the routine to call; read at emission time, after
    the analysis module and wrappers have been placed. *)

type resolved_arg =
  | R_const of int  (** a known 64-bit constant *)
  | R_addr of (unit -> int)
      (** an address below 2{^31}, resolved at emission (interned strings) *)
  | R_regv of Alpha.Reg.t
  | R_cond  (** branch-condition value of the site's instruction *)
  | R_effaddr  (** effective address of the site's memory instruction *)

type callee =
  | Call of target  (** [bsr] to the wrapper or the analysis procedure *)
  | Splice of int * (unit -> Alpha.Insn.t list)
      (** the analysis procedure's body inlined at the site: instruction
          count (fixed at stub-construction time) and a late thunk for the
          instructions themselves (read from the finally-placed analysis
          image; its trailing [ret] already removed).  The body must be
          position-independent as a group — internal PC-relative branches
          only, no calls. *)

val site_stub :
  site_insn:Alpha.Insn.t ->
  args:resolved_arg list ->
  extra_saves:Alpha.Regset.t ->
  ?live:Alpha.Regset.t ->
  callee:callee ->
  unit ->
  Om.Codegen.stub
(** [extra_saves] adds registers to the site's save set (the inline-save
    call style passes the whole summary here; the wrapper style passes the
    empty set).  [live], when given, drops saves of registers that are
    dead in the application at this point — the paper's planned
    live-register optimization; registers the stub itself must observe
    (REGV and address operands) are kept regardless.
    @raise Failure if the call lands out of [bsr] range at emission. *)

val wrapper :
  at:int ->
  summary:Alpha.Regset.t ->
  nargs:int ->
  proc_addr:int ->
  Alpha.Insn.t list
(** The wrapper routine for one analysis procedure, placed at address
    [at].  Saves [summary] minus the registers every site already saves
    ([ra] and the first [nargs] argument registers), calls [proc_addr],
    restores, returns. *)

val load_const : Alpha.Reg.t -> int -> Alpha.Insn.t list
(** Materialise an arbitrary 64-bit constant (2 instructions for values
    that fit 32 bits, 5 in the general case; no literal pool, stubs must
    be self-contained). *)
