(** OM's symbolic intermediate representation of a linked program.

    A program is a linear collection of procedures, a procedure a
    collection of basic blocks, and a block a collection of instructions —
    the exact view the paper's instrumentation API exposes.  The view is
    immutable: it holds the decoded program and nothing a client adds to
    it, so one built program is shared by every tool, every concurrent
    request and the verifier.  The code a client asks to insert lives in
    a per-request stub table ({!Codegen.table}) that {!Codegen} reads when
    it lays the program back out. *)

type inst = {
  i_insn : Alpha.Insn.t;
  i_pc : int;  (** original address in the uninstrumented program *)
}

type block = {
  b_addr : int;  (** original address of the first instruction *)
  b_insts : inst array;
  b_succs : int list;
      (** original addresses of possible intra-procedure successors
          (branch targets and fall-through); empty after jumps/returns *)
}

type proc = {
  p_name : string;
  p_addr : int;
  p_size : int;  (** bytes of original text *)
  p_blocks : block array;
}

type program = {
  procs : proc array;  (** ascending by address, covering all of text *)
  exe : Objfile.Exe.t;
}

val first_inst : block -> inst
val last_inst : block -> inst
val entry_block : proc -> block
val inst_count : program -> int

val iter_insts : program -> (proc -> block -> inst -> unit) -> unit
(** In address order. *)

val find_proc : program -> string -> proc option

val proc_at : program -> int -> proc option
(** The procedure whose text contains the given original address. *)
