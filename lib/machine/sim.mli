(** The Alpha machine simulator.

    Executes a linked {!Objfile.Exe.t} with the OSF/1-style process model
    of the paper's Figure 4: the stack starts at the base of the text
    segment and grows down; the heap starts at the program break (end of
    [.bss]) and grows up via the [brk] system call.

    System calls are made with [call_pal 0x83] (callsys): the call number
    in [$v0], arguments in [$a0]..[$a2], result in [$v0] and an error flag
    in [$a3].  Numbers: exit 1, read 3, write 4, close 6, brk 17, open 45.

    Code is decoded lazily per executable segment (any segment based
    below the data segment): {!prepare} scans each word once for the
    facts a run needs before it starts and keeps no instruction, and an
    instruction is decoded the first time either engine fetches or
    translates it, then kept in the image for every later run.  Most of
    an image's code — the analysis module and the runtime library ATOM
    links into it — never runs.

    Two engines execute the code.  [Ref] is the reference
    interpreter in this module: a loop over the decode-then-dispatch step
    {!State.step}, which serves as the executable specification.  [Fast]
    (the default) is {!Exec}'s closure-compiled engine: each basic block
    is translated, the first time it runs, into specialized closures with
    operands, displacements and branch targets resolved at translation
    time, and the few instructions no block covers take the reference
    step.  A [Fast] machine with a trace hook or strict alignment runs on
    the reference loop.  The two are observationally bit-identical —
    outcome, registers, memory, statistics, trace stream — which
    [test/test_engine_diff.ml] enforces differentially. *)

type t

type outcome = State.outcome =
  | Exit of int
  | Fault of Fault.t
      (** a structured machine fault: segmentation violation, illegal
          instruction, bad PC, bad PAL call, unknown syscall, alignment
          (under strict alignment), or the resident-memory ceiling *)
  | Out_of_fuel  (** hit the [max_insns] budget *)

type engine = State.engine =
  | Ref  (** the reference interpreter: slow, simple, the specification *)
  | Fast  (** the closure-compiled engine, several times faster *)

type stats = State.stats = {
  st_insns : int;  (** instructions retired *)
  st_cycles : int;  (** weighted cycles, {!insn_cycles} per instruction *)
  st_pair_cycles : int;
      (** issue cycles under an optimistic 21064 dual-issue model: an
          aligned, class-compatible, dependence-free instruction pair
          executed in sequence costs one cycle; comparable to the paper's
          wall-clock measurements in a way raw instruction counts are
          not *)
  st_loads : int;
  st_stores : int;
  st_cond_branches : int;
  st_taken : int;
  st_calls : int;
  st_syscalls : int;
}

val sys_exit : int
val sys_read : int
val sys_write : int
val sys_close : int
val sys_brk : int
val sys_open : int

val engine_name : engine -> string
(** ["ref"] or ["fast"]. *)

val engine_of_string : string -> engine option
(** Parse an engine name as accepted by the CLIs' [--engine] flag:
    ["ref"]/["reference"] or ["fast"]/["closure"]. *)

type image
(** An executable prepared for execution: its code segments with a
    dual-issue pair bit and a basic-block leader bit per word, and the
    protection region list — everything about a run that does {e not}
    depend on the run.  Prepare once, then {!start} any number of
    machines (concurrently, from any domain): a serving process runs one
    loaded image thousands of times without re-parsing it.  Per-run state
    (memory, VFS, registers, statistics) lives in {!t}, and so do the
    fast engine's translations, which each machine builds block by block
    as its run first enters them.

    The image's one mutable part is its decoded instructions, each
    stored on first use.  Machines in several domains may decode the
    same word at once without a lock: each stores an equal, immutable
    instruction, and OCaml 5's memory model lets a racing reader see
    either the placeholder of an undecoded word (and decode the word
    itself) or a fully built instruction, never a partly built one.  The
    image keeps the executable and reads its segment bytes at every
    {!start} and on every first decode, so they must not be mutated
    after [prepare]. *)

val prepare : Objfile.Exe.t -> image
(** Find the dual-issue pair bits and the basic-block leaders of the
    executable's code segments, in one pass that decodes each word
    without keeping it, and derive its protection regions.  The image
    starts out holding about one heap word per code word; each word a
    run later decodes adds its instruction. *)

val image_exe : image -> Objfile.Exe.t
(** The executable the image was prepared from. *)

val start :
  ?engine:engine ->
  ?stdin:string ->
  ?inputs:(string * string) list ->
  ?protect:bool ->
  ?max_pages:int ->
  ?stack_bytes:int ->
  ?brk_max:int ->
  ?strict_align:bool ->
  image ->
  t
(** Build a fresh machine over a prepared image: new memory with the
    segments mapped, new VFS, [$sp] set, statistics zeroed.  Two machines
    started from one image share only immutable data. *)

val load :
  ?engine:engine ->
  ?stdin:string ->
  ?inputs:(string * string) list ->
  ?protect:bool ->
  ?max_pages:int ->
  ?stack_bytes:int ->
  ?brk_max:int ->
  ?strict_align:bool ->
  Objfile.Exe.t ->
  t
(** [prepare] + [start]: build a machine with the image mapped, [$sp] set, and registered input
    files available to [open].  [engine] selects the execution engine used
    by {!run} (default [Fast]).

    By default ([protect = true]) a protection map derived from the
    executable is installed: each segment is readable (writable only when
    its [seg_write] flag says so), the stack gets [stack_bytes] (default
    {!default_stack_bytes}) of writable memory below the text base with
    everything beneath it a guard gap, and the heap covers the program
    break's high-water mark as [brk] moves it.  Accesses outside the map
    raise structured {!Fault.Segv} faults instead of silently
    materialising pages, and at most [max_pages] (default
    {!default_max_pages}) resident pages may exist before
    {!Fault.Mem_limit} fires.  [brk_max] bounds how far the break may be
    pushed (default {!default_brk_span} past the initial break); a [brk]
    request outside [initial break, brk_max] is refused with -1.
    [strict_align] (default off) makes naturally-misaligned accesses
    raise {!Fault.Unaligned}.  [protect:false] restores the permissive
    allocate-on-touch memory, which raw instruction-level tests use. *)

val insn_cycles : Alpha.Insn.t -> int
(** The machine's per-instruction cycle model — what one retired
    instruction adds to [st_cycles] on either engine (see
    {!Exec.insn_cycles}).  The WCET layer sums this over basic blocks so
    static bounds and measured cycles share a unit. *)

val default_max_insns : int
(** The one fuel default — one billion instructions — used by {!run},
    {!Workloads.run_exe}, [Verify.differential], [runsim --fuel] and the
    serving daemon's per-request ceiling alike, so the same program can
    never exhaust its fuel through one path while completing through
    another. *)

val default_max_pages : int
(** Resident-page ceiling of {!start}: 65536 pages, i.e. 256 MiB. *)

val default_stack_bytes : int
(** Writable stack below the text base given by {!start}: 8 MiB. *)

val default_brk_span : int
(** How far past the initial break {!start} lets [brk] move by default:
    1 GiB. *)

val run : ?max_insns:int -> t -> outcome
(** Execute until exit, fault or fuel exhaustion ([max_insns] defaults to
    {!default_max_insns}). *)

val stats : t -> stats

val blocks_translated : t -> int * int
(** [(built, leaders)]: how many turbo blocks the fast engine has built on
    this machine so far, and how many basic-block leaders its code has —
    the most it could build.  A block is built the first time a run
    enters its leader, so [built] counts the blocks reached.  It is 0 on
    the reference engine, and it does not grow while a trace hook is
    installed or [strict_align] is on: {!run} then takes the reference
    loop. *)

val words_decoded : t -> int * int
(** [(decoded, words)]: how many of the code words of the machine's image
    have been decoded so far, and how many it has.  A word is decoded the
    first time a run on either engine fetches or translates it, so this
    counts the code reached by every machine started from the image, not
    only this one. *)

val engine : t -> engine
val vfs : t -> Vfs.t
val stdout : t -> string
val stderr : t -> string
val output_files : t -> (string * string) list

val brk : t -> int
(** Current program break (final heap break once the run is over). *)

val reg : t -> Alpha.Reg.t -> int64
val freg_bits : t -> Alpha.Reg.f -> int64
val pc : t -> int
val mem : t -> Mem.t

val read_u64 : t -> int -> int64
(** Read simulated memory (for tests and tools). *)

val set_trace : t -> (int -> Alpha.Insn.t -> unit) -> unit
(** Install a per-instruction hook (used by tests to observe execution).
    From then on {!run} takes the reference loop on either engine, so
    both deliver the identical [(pc, insn)] stream; the blocks a [Fast]
    machine has already translated are kept. *)

val set_reg : t -> Alpha.Reg.t -> int64 -> unit
(** Overwrite an integer register before a run (for tests; writes to [$31]
    are ignored, it stays hardwired to zero). *)

val set_freg_bits : t -> Alpha.Reg.f -> int64 -> unit
(** Overwrite a floating register's bit pattern (writes to [$f31] ignored). *)

val set_pc : t -> int -> unit
(** Redirect execution (for tests). *)
