(** Binary encoding of instructions.

    The encodings are the real Alpha AXP formats (Alpha Architecture
    Reference Manual): memory, branch, integer-operate (register and
    8-bit-literal forms), floating-operate, jump and PAL formats, with the
    architecture's opcode and function-code assignments.  Words are held in
    OCaml [int]s restricted to 32 bits and serialised little-endian. *)

val encode : Insn.t -> int
(** The 32-bit word for an instruction.  [Raw w] encodes to [w].
    @raise Invalid_argument if a displacement or literal is out of range. *)

val decode : int -> Insn.t
(** Decode a 32-bit word.  Words outside the implemented subset decode to
    [Raw].  Operate and floating-operate function codes are looked up in
    direct-indexed tables built once from {!opr_codes} and {!fop_codes}:
    one 128-entry row per integer-operate opcode (0x10–0x13) and one
    2,048-entry row per floating-operate opcode (0x16–0x17), so a decode
    allocates nothing but its result. *)

val opr_codes : Insn.opr_op -> int * int
(** The (major opcode, 7-bit function code) pair of an integer operate. *)

val fop_codes : Insn.fop_op -> int * int
(** The (major opcode, 11-bit function code) pair of a floating operate. *)

val read_word : bytes -> int -> int
(** [read_word b off] reads a little-endian 32-bit word. *)

val write_word : bytes -> int -> int -> unit
(** [write_word b off w] stores [w] little-endian at [off]. *)

val decode_at : bytes -> int -> Insn.t
val encode_at : bytes -> int -> Insn.t -> unit

val decode_cached : int -> Insn.t
(** [decode] through a word-keyed memo (one per domain), used by the IR
    builder.  Instruction words repeat heavily within an image: the memo
    decodes each distinct word once, and every instruction with that word
    shares one [Insn.t] value, which keeps the IRs the toolchain cache
    holds small.  Semantically identical to {!decode} ([Insn.t] is
    immutable, so sharing is safe).  A lookup costs more than a plain
    {!decode}: over the words of 15 instrumented images, about 29 ns per
    word against 6 ns (a 2-core x86-64 host), so a pass that reads each
    word once and keeps nothing (the verifier, [Sim.prepare]) decodes
    directly. *)

val decode_at_cached : bytes -> int -> Insn.t
(** [decode_cached] of {!read_word}. *)

val roundtrips : int -> bool
(** Whether [encode (decode w) = w]: the word is either outside the
    implemented subset (kept verbatim as [Raw]) or a canonical encoding.
    Words the instrumentation engine emits always round-trip; a corrupted
    field that strays into unused encoding space does not. *)

val fits_disp16 : int -> bool
(** Whether a byte displacement fits the signed 16-bit memory format. *)

val fits_disp21 : int -> bool
(** Whether a word displacement fits the signed 21-bit branch format. *)
