(** A packaged analysis tool: the instrumentation routine, the Mini-C
    analysis routines, and the numbers the paper reports for it
    (Figures 5 and 6), kept together so the benchmark harness can print
    paper-vs-measured tables. *)

type t = {
  name : string;
  description : string;  (** Figure 5's "Tool Description" column *)
  points : string;  (** Figure 6's "Instrumentation" column *)
  nargs : int;  (** Figure 6's "Number of Arguments" column *)
  paper_ratio : float;  (** Figure 6: instrumented/uninstrumented time *)
  paper_avg_instr_secs : float;  (** Figure 5: average seconds to instrument *)
  instrument : Atom.Api.t -> unit;
  analysis : string;  (** Mini-C source of the analysis routines *)
}

val apply :
  ?options:Atom.Instrument.options ->
  t ->
  Objfile.Exe.t ->
  Objfile.Exe.t * Atom.Instrument.info
(** Instrument an executable with the tool. *)

val counter_tool :
  Atom.Api.t ->
  init:string ->
  report:string ->
  (next:(unit -> int) -> unit) ->
  unit
(** The counter-array idiom shared by the counting tools (prof, gprof,
    branch, dyninst, trace): the walk assigns dense slot ids with [next]
    while adding its per-site calls, then [init] is called at program
    start with the final slot count (so the analysis code can size its
    arrays) and [report] at program end.  Registration order — walk
    calls first, then init, then report — is part of the tools'
    byte-identity contract; [Api.action] ranks reorder the init/report
    calls to the right execution slots. *)
