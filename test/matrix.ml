(* The instrumentation option matrix that the cache-identity tests and
   the image digest gate sweep, and the audit normalization both
   compare under. *)

module I = Atom.Instrument

let option_matrix =
  [
    I.default_options;
    { I.default_options with I.save_strategy = I.Summary_and_live };
    { I.default_options with I.call_style = I.Inline_saves };
    {
      I.save_strategy = I.Summary_and_live;
      call_style = I.Inline_body;
      heap_mode = I.Partitioned (1 lsl 24);
    };
    (* the one style that computes liveness whatever the save strategy *)
    { I.default_options with I.call_style = I.Specialized };
  ]

(* wrapper/proc address lists come out of hash-table folds; order is not
   part of the audit's meaning *)
let norm_audit (a : I.audit) =
  {
    a with
    I.au_wrappers = List.sort compare a.I.au_wrappers;
    au_procs = List.sort compare a.I.au_procs;
  }
