(** The instrumentation interface — the OCaml rendering of the paper's
    instrumentation-routine API (Figure 2).

    A tool's instrumentation routine receives a [t], declares the
    prototypes of its analysis procedures with {!add_call_proto}, walks
    the program with the navigation primitives, and requests procedure
    calls with the [add_call_*] primitives.  Multiple calls added at one
    point run in the order they were added. *)

type t

type proc
type block
type inst

(** {1 Navigation} *)

val procs : t -> proc list
val get_first_proc : t -> proc option
val get_next_proc : t -> proc -> proc option

val blocks : proc -> block list
val get_first_block : proc -> block option
val get_next_block : proc -> block -> block option

val insts : block -> inst list
val get_first_inst : block -> inst option
val get_last_inst : block -> inst
val get_next_inst : block -> inst -> inst option

val proc_name : proc -> string
val proc_pc : proc -> int
val proc_size : proc -> int

val block_pc : block -> int
val block_ninsts : block -> int
val block_succs : block -> int list
(** Original addresses of intra-procedure successors. *)

val inst_pc : inst -> int
(** The {e original} program counter, as the uninstrumented program would
    see it. *)

val inst_insn : inst -> Alpha.Insn.t

type inst_type =
  | Inst_cond_branch
  | Inst_uncond_branch
  | Inst_load
  | Inst_store
  | Inst_memory  (** any load or store *)
  | Inst_jump
  | Inst_call  (** [bsr] or [jsr] *)
  | Inst_return
  | Inst_fp  (** floating-point operate *)
  | Inst_syscall  (** [call_pal callsys] *)

val is_inst_type : inst -> inst_type -> bool

val inst_access_bytes : inst -> int
(** Size of the memory access in bytes (0 when not a memory reference). *)

val call_target : t -> inst -> string option
(** For a direct call ([bsr]), the name of the called procedure. *)

val first_inst_of_proc : proc -> inst
(** @raise Error on an empty procedure. *)

val entry_proc : t -> proc
val exit_proc : t -> proc option
(** The procedure treated as the program-end hook (the C library's
    [exit]). *)

(** {1 Arguments} *)

type arg =
  | Int of int  (** a 64-bit constant (the [int]/[long] prototype types) *)
  | Inst_pc of inst  (** shorthand: the instruction's original PC *)
  | Block_pc of block
  | Proc_pc of proc
  | Regv of Alpha.Reg.t  (** run-time contents of an integer register *)
  | Br_cond_value
      (** for conditional branches: zero if the branch will fall through,
          non-zero if it will be taken *)
  | Eff_addr_value  (** for loads/stores: the effective address *)
  | Str of string
      (** address of a NUL-terminated copy of the string, placed in the
          analysis data region *)

(** {1 Adding calls} *)

type program_place = Program_before | Program_after

type place = Om.Codegen.place =
  | Before
  | After
  | Taken_edge
      (** only on conditional branches: the call happens exactly when the
          branch is taken (our implementation of the paper's deferred
          "calls on edges").  [After] on a conditional branch is the
          complementary fall-through edge. *)

exception Error of string
(** Raised on misuse: undeclared analysis procedure, argument/prototype
    mismatch, [Br_cond_value] on a non-branch, more than six arguments,
    [After] on an instruction that does not fall through... *)

val add_call_proto : t -> string -> unit
(** Declare an analysis procedure, e.g.
    [add_call_proto t "CondBranch(int, VALUE)"]. *)

val add_call_program : t -> program_place -> string -> arg list -> unit
val add_call_proc : t -> proc -> place -> string -> arg list -> unit
val add_call_block : t -> block -> place -> string -> arg list -> unit
val add_call_inst : t -> inst -> place -> string -> arg list -> unit

type edge = Taken | Fallthrough

val add_call_edge : t -> block -> edge -> string -> arg list -> unit
(** Instrument one outgoing control-flow edge of a block.  For a block
    ending in a conditional branch both edges exist; for an unconditional
    branch only [Taken]; for a fall-through block only [Fallthrough].
    @raise Error when the requested edge does not exist. *)

(** {1 For the instrumentation engine} *)

type action = {
  a_proc : string;  (** analysis procedure to call *)
  a_args : arg list;
  a_inst : inst;  (** the site the action was lowered onto *)
  a_place : place;
  a_rank : int;
      (** same-site ordering class: [ProgramBefore] calls rank below
          instruction- and block-level calls, [ProgramAfter] calls above
          them, whatever the registration order.  A tool that registers
          its per-block counters before its init hook still gets the init
          called first. *)
}

val rank_program_before : int
val rank_normal : int
val rank_program_after : int

val create : Om.Ir.program -> t
val ir : t -> Om.Ir.program
(** The application's IR.  It is the one value {!Toolcache.program}
    caches, shared with every other request and the verifier: read it,
    never write into its arrays. *)

val ir_inst : inst -> Om.Ir.inst
val protos : t -> (string, Proto.t) Hashtbl.t
val actions : t -> action list
(** In the order they were added. *)
