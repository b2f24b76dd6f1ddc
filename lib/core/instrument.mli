(** The ATOM pipeline: custom tool + application executable + analysis
    routines -> instrumented executable (paper §2 and §4).

    The instrumented executable is organised per Figure 4:

    - the application's data, rdata, stack base, and heap base keep their
      original addresses — analysis routines observe the program as if it
      ran uninstrumented (original PCs are presented for text addresses);
    - the instrumented program text replaces the original at the same
      base; the analysis module (its own text, read-only data, data, and
      its [.bss] converted to zero-initialised data), the wrapper
      routines, and ATOM's interned strings all sit in the gap between
      the program text and the program data;
    - taken procedure addresses in the application are retargeted using
      the executable's relocation knowledge (OM is a link-time system);
    - the analysis module gets its own copy of the runtime library and is
      initialised by an implicit [ProgramBefore] call to its
      [__libc_init]. *)

type save_strategy =
  | Summary  (** save only registers in the analysis routine's dataflow summary *)
  | Save_all  (** save every caller-save register (ablation baseline) *)
  | Summary_and_live
      (** additionally drop saves of registers that are dead in the
          application at the site (the paper's planned live-register
          optimization, implemented here); with the [Wrapper] call style
          this trims the site saves ([$ra], argument registers), with
          [Inline_saves] the whole save set is live-filtered *)

type call_style =
  | Wrapper  (** shared per-procedure wrapper does the summary saves (default) *)
  | Inline_saves
      (** all saves inlined at each site: no indirection, bigger code
          (the paper's higher-optimisation option, modelled at the site) *)
  | Inline_body
      (** additionally splice the analysis procedure's body into the site
          when it qualifies (position-independent: no calls, branches
          internal, single trailing [ret]) — the paper's planned inlining
          optimization; non-qualifying procedures fall back to direct
          calls *)
  | Specialized
      (** the lowest-overhead style: each site saves only the registers
          the analysis routine actually clobbers (its
          {!Om.Dataflow.modified_by} summary) {e and} that are live in
          the application at the site — liveness is computed whatever the
          save strategy says — and tiny leaf routines (straight-line, no
          calls, no branches, a single trailing [ret], at most
          {!max_leaf_insns} body instructions: the counter-increment
          shape used by prof/branch/trace) are spliced into the stub
          outright, eliminating the [bsr]/[ret] round trip *)

type heap_mode =
  | Linked
      (** the two [sbrk]s share one break variable; each allocation starts
          where the other left off (default) *)
  | Partitioned of int
      (** the analysis heap starts at the application's initial break plus
          the given offset; application heap addresses match the
          uninstrumented run even if both sides allocate *)

type options = {
  save_strategy : save_strategy;
  call_style : call_style;
  heap_mode : heap_mode;
}

val default_options : options
(** [{ save_strategy = Summary; call_style = Wrapper; heap_mode = Linked }] *)

val max_leaf_insns : int
(** Largest body (excluding the trailing [ret]) the [Specialized] style
    will splice into a site stub. *)

(** One lowered analysis call, in the order actions were lowered (includes
    the implicit [__libc_init]/[__libc_fini] calls).  Together with
    {!Om.Codegen.site} layout records this is the evidence the verifier
    checks the image against. *)
type audit_site = {
  as_pc : int;  (** original PC of the site instruction *)
  as_place : Api.place;
  as_proc : string;  (** analysis procedure called *)
  as_summary : Alpha.Regset.t;
      (** registers the call may clobber under the active save strategy *)
  as_nargs : int;
}

(** What the engine claims it did: where every stub landed, where the
    analysis module and wrappers were placed, and which registers each
    call site must protect.  Consumed by the [Verify] library. *)
type audit = {
  au_options : options;
  au_sites : audit_site list;
  au_layout : Om.Codegen.site list;
  au_prog_text : int * int;  (** instrumented program text: base, size *)
  au_anal_text : int * int;  (** analysis module text: base, size *)
  au_anal_region : int * int;
      (** everything inserted in the text–data gap (analysis module,
          wrappers, interned strings): base, size *)
  au_wrappers : (string * int) list;  (** wrapper routine addresses *)
  au_procs : (string * int) list;  (** analysis global addresses *)
}

type info = {
  i_sites : int;  (** instrumentation points (stubs inserted) *)
  i_calls : int;  (** analysis procedures referenced *)
  i_text_growth : int;  (** bytes added to the application text *)
  i_analysis_bytes : int;  (** bytes of analysis module + wrappers *)
  i_map : int -> int;  (** old text address -> new *)
  i_audit : audit;  (** verification evidence *)
}

exception Error of string

val instrument :
  ?options:options ->
  exe:Objfile.Exe.t ->
  tool:(Api.t -> unit) ->
  analysis:Objfile.Unit_file.t list ->
  unit ->
  Objfile.Exe.t * info
(** Build the instrumented program.  [tool] is the user's instrumentation
    routine; [analysis] the compiled analysis modules (they are linked
    with their own copy of the runtime library).

    Every step that depends only on part of its inputs is served from
    the content-addressed toolchain caches ({!Toolcache}): the
    application's IR and liveness table, the prepared analysis module
    and its final link.  Emptying the caches changes only the speed of
    the next call, never its output.
    @raise Error on any failure (undefined analysis procedure, overflow of
    the text gap, malformed prototypes, an [exe] that is already
    instrumented...). *)

val instrument_source :
  ?options:options ->
  exe:Objfile.Exe.t ->
  tool:(Api.t -> unit) ->
  analysis_src:string ->
  unit ->
  Objfile.Exe.t * info
(** Convenience: compile the analysis routines from Mini-C source (with
    the runtime-library prototypes in scope) and instrument.  The
    compilation itself is served from the content-addressed [Rtlib]
    cache. *)
