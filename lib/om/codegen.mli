(** Code generation: lay the IR back out as machine code, with the
    stubs a request asked for spliced in.

    The program view ({!Ir}) holds no stubs; one request's stubs come in
    a {!table} built for that request, so a single built program serves
    any number of requests at once.  The new text is placed at the
    original text base; stubs expand it, so every original instruction
    may move.  The generator

    - computes the old-to-new PC map,
    - re-resolves every PC-relative branch through that map (branch targets
      land on the target instruction's {e before}-stubs, so entering a
      block by branch runs its instrumentation),
    - rewrites [ldah]/[lda] pairs that materialise a {e text} address
      (using the executable's {!Objfile.Exe.code_ref} records), so taken
      procedure addresses remain valid,
    - executes each instruction's {e after}-stubs only on fall-through.

    Data-resident code references ([Cr_quad]/[Cr_long]) are reported back
    for the caller (ATOM) to patch in the data image. *)

type stub = {
  s_size : int;  (** bytes the stub occupies; must equal [4 * length (s_emit ~pc)] *)
  s_emit : pc:int -> Alpha.Insn.t list;
      (** instructions, given the stub's final placement address *)
}
(** A stub's size must be known up front (layout is a single pass) while
    its bytes may depend on its final address (a [bsr] to an absolute
    target needs its own PC), hence the [s_size]/[s_emit] split. *)

val stub_of_insns : Alpha.Insn.t list -> stub
(** A stub whose contents do not depend on placement. *)

type place =
  | Before  (** runs before the instruction, also when it is entered by a branch *)
  | After  (** runs after the instruction, on fall-through only *)
  | Taken_edge
      (** only legal on a conditional branch: runs exactly when the branch
          is taken.  Lowered by inverting the branch over a trampoline
          (the paper's deferred "calls on edges" feature). *)

type table
(** One request's stubs: for each original PC, its before-, taken-edge
    and after-stubs, each in the order they were requested. *)

val table : (int * place * stub) list -> table
(** The table of [(original pc, place, stub)] requests, in request
    order. *)

type error_info = { e_proc : string; e_pc : int; e_what : string }
(** A structural failure at a specific site: the enclosing procedure, the
    {e original} PC of the offending instruction, and what went wrong
    (including the displacement when a branch no longer fits its field).
    The verifier names the same sites the same way. *)

exception Error of error_info

val error_message : error_info -> string
(** Render an {!Error} payload as ["procedure %s, pc %#x: %s"]. *)

type extent = { e_addr : int; e_size : int }
(** A contiguous run of emitted stub code in the new text (bytes). *)

type site = {
  st_pc : int;  (** original PC of the instrumented instruction *)
  st_proc : string;  (** enclosing procedure *)
  st_before : extent list;  (** one extent per before-stub, in run order *)
  st_insn_addr : int;  (** new address of the relocated instruction *)
  st_taken : extent list;  (** taken-edge trampoline stubs (final branch excluded) *)
  st_after : extent list;
}

type result = {
  r_text : bytes;  (** instrumented text, based at the original text start *)
  r_map : int -> int;
      (** old PC -> new PC, defined on [text_start .. text_start+size] *)
  r_data_patches : (Objfile.Exe.code_ref * int) list;
      (** data-segment code refs paired with the {e new} target address *)
  r_sites : site list;
      (** where every stub landed, in address order — the verifier's map of
          which code is inserted and which is relocated application text *)
}

val sizeof : ?stubs:table -> Ir.program -> int
(** Size in bytes of the instrumented text: the original text plus the
    table's stubs (layout is deterministic).  Without [stubs], the size
    of the original text. *)

val generate : ?stubs:table -> Ir.program -> result
(** Without [stubs], a plain relayout.
    @raise Error if a rewritten branch no longer fits its displacement
    field, a stub misdeclares its size, or stubs are attached to an
    instruction that cannot host them.
    @raise Failure if a table PC is not an instruction of the program. *)
