(** Machine state and instruction semantics shared by the two execution
    engines: {!Sim}'s reference interpreter (the executable specification)
    and {!Exec}'s closure-compiled fast engine.  Everything observable —
    registers, memory, the VFS, the statistics counters and the trace
    hook — lives here so that both engines mutate the same state in the
    same order, which is what makes them differentially testable.  So
    does the reference step itself ({!step}), which both engines run. *)

open Alpha

type code_seg = {
  cs_base : int;
  cs_words : bytes;  (** the segment's bytes, as the executable holds them *)
  cs_insns : Insn.t array;
      (** decoded instructions, filled on first use by {!insn}: a slot
          holds {!undecoded} until then *)
  cs_flags : bytes;
      (** one byte per instruction: {!pair_bit} and {!leader_bit} *)
}
(** A code segment of a prepared image.  It is shared by every machine
    started from the image, from any domain.  Its only mutation is
    {!insn} filling [cs_insns]; two domains that race on a slot store
    equal immutable values, and OCaml 5 lets a racing reader see either
    the placeholder or a fully built instruction, never a torn one. *)

val undecoded : Insn.t
(** The placeholder of an instruction not decoded yet, compared
    physically; no decoded word is physically equal to it. *)

val insn : code_seg -> int -> Insn.t
(** [insn cs k]: instruction [k] of the segment, decoded from
    [cs_words] the first time it is asked for. *)

val pair_bit : int
(** Instruction [k] sits on an even word boundary, may dual-issue with
    instruction [k + 1] (the 21064 aligned-pair rule), and [k + 1] does
    not consume a result of [k]. *)

val leader_bit : int
(** Instruction [k] starts a basic block, where the fast engine builds a
    turbo block on first entry. *)

val set_flag : code_seg -> int -> int -> unit
val is_pair : code_seg -> int -> bool
val is_leader : code_seg -> int -> bool

type fast_seg = {
  fs_code : code_seg;
  fs_disp : (int -> unit) array;
      (** block dispatch: [fs_disp.(k)] runs the code at word [k] and is
          always called with [k]; a leader's slot holds its turbo block
          once built, every other slot the stub *)
  fs_effect : Insn.t -> (unit -> unit) option;
      (** the machine's effect translator, shared by the segment's
          translations *)
}
(** A code segment as {!Exec} translates it. *)

type stats = {
  st_insns : int;
  st_cycles : int;
  st_pair_cycles : int;
  st_loads : int;
  st_stores : int;
  st_cond_branches : int;
  st_taken : int;
  st_calls : int;
  st_syscalls : int;
}

type engine = Ref | Fast

type t = {
  mem : Mem.t;
  regs : bytes;
      (** the integer registers: 32 8-byte slots, register [r] at byte
          [8 * r], read and written only through {!get64u}/{!set64u};
          slot 31 is never written, so it reads as zero *)
  fregs : bytes;  (** the floating registers' bit patterns, laid out alike *)
  mutable pc : int;
  code : code_seg list;
  engine : engine;
  mutable fast : fast_seg list;
  mutable blocks_built : int;
  vfs : Vfs.t;
  mutable brk : int;
  brk0 : int;
  mutable brk_max : int;
  mutable strict_align : bool;
  mutable block_cont : bool;
  mutable insns : int;
  mutable fuel : int;
  mutable cycles : int;
  mutable pair_cycles : int;
  mutable prev_pc : int;
  mutable pending_pair : bool;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable taken : int;
  mutable calls : int;
  mutable syscalls : int;
  mutable trace : (int -> Insn.t -> unit) option;
}

type outcome = Exit of int | Fault of Fault.t | Out_of_fuel

val sys_exit : int
val sys_read : int
val sys_write : int
val sys_close : int
val sys_brk : int
val sys_open : int

exception Halted of int
exception Faulted of Fault.t

exception Fuel
(** Raised by the fast engine when the instruction budget runs out. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
(** Unchecked native-endian access to the 8-byte slot at a byte offset.
    As primitives they compile inline in every module, even one built
    with [-opaque], so a register value read or written through them is
    never boxed; a call to a function of another module (or through a
    closure) boxes every [int64] and [float] it passes or returns. *)

val getr : t -> int -> int64
val setr : t -> int -> int64 -> unit
val getf : t -> int -> int64
val setf : t -> int -> int64 -> unit

val eval_opr : Insn.opr_op -> int64 -> int64 -> int64
(** Result of a non-conditional-move operate instruction. *)

val syscall : t -> unit
(** Execute the system call selected by [$v0]; raises [Halted] for [exit]
    and [Faulted] for an unknown call number or a memory fault touching
    the program's buffers (both quote [t.pc], which must point at the
    [call_pal] instruction in either engine). *)

val step : t -> unit
(** The reference step: fetch the instruction at [t.pc] — a PC outside
    the code raises [Faulted] with {!Fault.Bad_pc} — charge the dual-issue
    pair accounting, call the trace hook, count the instruction and its
    cycles, execute it and advance [t.pc].  A fault leaves [t.pc] at the
    faulting instruction; a load or store outside the protection map
    raises {!Mem.Prot} (or {!Mem.Limit}) for the caller to convert.  It
    checks no fuel.  {!Sim}'s reference loop is this step alone; the fast
    engine takes it wherever no turbo block runs. *)
