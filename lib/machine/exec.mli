(** The closure-compiled fast execution engine.

    Code is translated into specialized OCaml closures one basic block at
    a time, the first time control reaches the block's leader.  Operand
    registers, sign-extended displacements, literals, the operate
    function and PC-relative branch targets are all resolved at
    translation time, and fall-through chains dispatch closure-to-closure
    without re-entering the fetch loop.  A run translates only the code it
    executes; the translations live on the machine, so later runs of the
    same machine reuse them.  Where no block runs — an entry into the
    middle of a block, or a block longer than the remaining fuel — the
    engine takes the reference step ({!State.step}) one instruction at a
    time.

    The engine is observationally bit-identical to the {!Sim} reference
    interpreter: same outcomes and fault messages, same final registers,
    memory, PC and program break, the same full {!State.stats} record
    (including the dual-issue pair-cycle model), and the same trace-hook
    stream.  [test/test_engine_diff.ml] and [test/test_insn_gen.ml]
    enforce this differentially. *)

val insn_cycles : Alpha.Insn.t -> int
(** Weighted cycles one instruction contributes to {!State.stats}
    [st_cycles], exactly as both engines charge it (loads/stores 2,
    [lda]/[ldah] 1, multiplies 8, [divt] 30, other float ops 4 except
    sign-copies at 1, branches and jumps 1, the [callsys] PALcall 10,
    faulting instructions 0).  This is the machine's cycle model; the
    WCET layer uses it as the per-block cost function so that static
    bounds and measured [st_cycles] are in the same unit. *)

val mark_leaders : State.code_seg -> int -> Alpha.Insn.t -> unit
(** [mark_leaders cs k i] sets {!State.leader_bit} on the basic-block
    leaders that instruction [i], word [k] of [cs], makes: word 0, the
    word after a control transfer, and the target of an in-segment
    static branch.  Called on every word of a segment, it marks exactly
    the segment's leaders; [Sim.prepare] does so in the one pass that
    decodes each word without keeping it.  The engine builds a turbo
    block at a leader the first time control enters it. *)

val tlb_size : int
(** Entries in each of the engine's two direct-mapped page TLBs, one for
    loads and one for stores: pages [tlb_size] pages apart share a slot. *)

val run : max_insns:int -> State.t -> State.outcome
(** Execute until exit, fault or fuel exhaustion after [max_insns]
    instructions, exactly as [Sim.run] would on the reference engine.
    The machine must have no trace hook and no strict alignment:
    [Sim.run] runs such a machine on the reference loop instead. *)
