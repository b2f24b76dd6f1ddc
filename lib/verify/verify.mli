(** Post-instrumentation verification.

    ATOM rewrites every branch, moves every instruction, and splices
    register-save stubs throughout the program text; a single bad
    displacement or dropped save silently corrupts the application it
    claims to observe.  This library checks an instrumented executable
    against the engine's own {!Atom.Instrument.audit} evidence, two ways:

    {b statically} ({!check_image}) — every word of inserted or relocated
    text decodes and round-trips through {!Alpha.Code}; every branch
    target is word-aligned, in range, and stays inside its region (only
    [bsr] may leave the program text, and only for a wrapper or analysis
    procedure); the old-to-new PC map is total, strictly increasing and
    lands inside the new text; the Figure-4 layout holds (program data
    addresses untouched, analysis module in the text–data gap) and the
    image passes {!Objfile.Exe.validate}, as the loader requires; and every
    stub opens a frame, saves what the active save strategy requires,
    calls the procedure the audit names, restores exactly what it saved
    in the order it saved it, and closes the frame — cross-checked
    against {!Om.Liveness} of the original executable when the
    live-register optimization is active;

    {b differentially} ({!differential}) — the original and instrumented
    executables run on {!Machine.Sim} and must agree on outcome, stdout,
    stderr, output files, and the application's final heap break.

    Issues carry the name of the check that produced them so tests (and
    the bench sweep) can assert that a deliberate corruption is caught by
    the right detector. *)

type issue = {
  v_check : string;  (** which check fired, e.g. ["branch-range"] *)
  v_addr : int option;  (** address in the instrumented image, if known *)
  v_detail : string;
}

type report = {
  r_checks : string list;  (** checks that ran *)
  r_issues : issue list;  (** findings, in discovery order *)
}

val ok : report -> bool

val static_checks : string list
(** [["decode-roundtrip"; "branch-range"; "pc-map"; "layout"; "stub-frame";
    "stub-saves"; "stub-callee"; "stub-coverage"]] *)

val differential_checks : string list
(** [["diff-exit"; "diff-stdout"; "diff-stderr"; "diff-files";
    "diff-break"]] *)

val pp_issue : Format.formatter -> issue -> unit
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
val merge : report -> report -> report

val check_image :
  original:Objfile.Exe.t ->
  instrumented:Objfile.Exe.t ->
  info:Atom.Instrument.info ->
  report
(** The static pass (no simulation).  Under [Summary_and_live] or
    [Specialized] the live sets come from {!Atom.Toolcache.liveness} of
    [original] — the entry the instrumentation engine used, filled from
    [original] alone on a miss — never from [info]. *)

val differential :
  ?engine:Machine.Sim.engine ->
  ?max_insns:int ->
  ?stdin:string ->
  ?inputs:(string * string) list ->
  original:Objfile.Exe.t ->
  instrumented:Objfile.Exe.t ->
  heap_mode:Atom.Instrument.heap_mode ->
  unit ->
  report
(** Run both executables on the selected simulator engine (default [Fast])
    and diff the observable behaviour ([max_insns] defaults to
    {!Machine.Sim.default_max_insns}).  The final
    application break is read through the [__curbrk] symbol of each image
    (falling back to the simulator's break): under [Partitioned] heaps it
    must be identical, under [Linked] it may only grow. *)

val verify :
  ?engine:Machine.Sim.engine ->
  ?max_insns:int ->
  ?stdin:string ->
  ?inputs:(string * string) list ->
  original:Objfile.Exe.t ->
  instrumented:Objfile.Exe.t ->
  info:Atom.Instrument.info ->
  unit ->
  report
(** {!check_image} followed by {!differential}, merged. *)
