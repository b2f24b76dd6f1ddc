type t = {
  name : string;
  description : string;
  points : string;
  nargs : int;
  paper_ratio : float;
  paper_avg_instr_secs : float;
  instrument : Atom.Api.t -> unit;
  analysis : string;
}

let apply ?options tool exe =
  Atom.Instrument.instrument_source ?options ~exe ~tool:tool.instrument
    ~analysis_src:tool.analysis ()

let counter_tool api ~init ~report walk =
  let n = ref 0 in
  let next () =
    let id = !n in
    incr n;
    id
  in
  walk ~next;
  Atom.Api.add_call_program api Atom.Api.Program_before init [ Atom.Api.Int !n ];
  Atom.Api.add_call_program api Atom.Api.Program_after report []
