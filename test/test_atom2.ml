(* Deeper ATOM tests: prototype parsing, API misuse errors, the pristine
   guarantee for REGV/EffAddrValue (validated against an execution trace
   of the uninstrumented program), and the option matrix. *)

let compile src = Rtlib.compile_and_link ~name:"app.o" src

let run exe =
  let m = Machine.Sim.load exe in
  match Machine.Sim.run ~max_insns:600_000_000 m with
  | Machine.Sim.Exit 0 -> m
  | Machine.Sim.Exit n -> Alcotest.failf "exit %d (stderr %s)" n (Machine.Sim.stderr m)
  | Machine.Sim.Fault f -> Alcotest.failf "fault %s" (Machine.Fault.to_string f)
  | Machine.Sim.Out_of_fuel -> Alcotest.fail "fuel"

(* -- prototype parsing ----------------------------------------------------- *)

let test_proto_parse () =
  let p = Atom.Proto.parse "CondBranch(int, VALUE)" in
  Alcotest.(check string) "name" "CondBranch" p.Atom.Proto.p_name;
  Alcotest.(check int) "arity" 2 (List.length p.Atom.Proto.p_params);
  let p2 = Atom.Proto.parse "F(char *name, long n, REGV r, void *p)" in
  Alcotest.(check int) "arity with names" 4 (List.length p2.Atom.Proto.p_params);
  let p3 = Atom.Proto.parse "CloseFile()" in
  Alcotest.(check int) "nullary" 0 (List.length p3.Atom.Proto.p_params);
  let p4 = Atom.Proto.parse "G(void)" in
  Alcotest.(check int) "void arg list" 0 (List.length p4.Atom.Proto.p_params);
  List.iter
    (fun bad ->
      match Atom.Proto.parse bad with
      | _ -> Alcotest.failf "parsed %S" bad
      | exception Atom.Proto.Parse_error _ -> ())
    [ "NoParens"; "(int)"; "F(int"; "F(banana)" ]

(* -- API misuse ------------------------------------------------------------ *)

let test_api_errors () =
  let exe = compile "long main(void) { return 0; }" in
  let expect_error name tool =
    match
      Atom.Instrument.instrument_source ~exe ~tool ~analysis_src:"void X(long a){}" ()
    with
    | _ -> Alcotest.failf "%s: did not error" name
    | exception Atom.Instrument.Error _ -> ()
  in
  expect_error "call without proto" (fun api ->
      let p = Atom.Api.entry_proc api in
      Atom.Api.add_call_proc api p Atom.Api.Before "X" [ Atom.Api.Int 1 ]);
  expect_error "arity mismatch" (fun api ->
      Atom.Api.add_call_proto api "X(int)";
      let p = Atom.Api.entry_proc api in
      Atom.Api.add_call_proc api p Atom.Api.Before "X" []);
  expect_error "BrCondValue on non-branch" (fun api ->
      Atom.Api.add_call_proto api "X(VALUE)";
      let p = Atom.Api.entry_proc api in
      Atom.Api.add_call_proc api p Atom.Api.Before "X" [ Atom.Api.Br_cond_value ]);
  expect_error "REGV where constant expected" (fun api ->
      Atom.Api.add_call_proto api "X(int)";
      let p = Atom.Api.entry_proc api in
      Atom.Api.add_call_proc api p Atom.Api.Before "X" [ Atom.Api.Regv 5 ]);
  expect_error "undefined analysis procedure" (fun api ->
      Atom.Api.add_call_proto api "Nope(int)";
      let p = Atom.Api.entry_proc api in
      Atom.Api.add_call_proc api p Atom.Api.Before "Nope" [ Atom.Api.Int 1 ]);
  expect_error "seven parameters" (fun api ->
      Atom.Api.add_call_proto api "X(int,int,int,int,int,int,int)")

(* An instrumented image's analysis region fills the text gap, so a
   second instrumentation would map two regions over each other: the
   instrumenter refuses its input instead *)
let test_reinstrument () =
  let tool name = Option.get (Tools.Registry.find name) in
  let exe = compile "long main(void) { return 0; }" in
  let branch, _ = Tools.Tool.apply (tool "branch") exe in
  match Tools.Tool.apply (tool "prof") branch with
  | _ -> Alcotest.fail "an instrumented image was instrumented again"
  | exception Atom.Instrument.Error m ->
      if not (String.starts_with ~prefix:"input is already instrumented" m)
      then Alcotest.failf "unexpected error: %s" m

(* -- pristine values -------------------------------------------------------- *)

(* Record $sp and $a0 at every entry to a chosen procedure, both via a
   simulator trace of the uninstrumented program and via ATOM REGV
   instrumentation of the same program; the sequences must be identical. *)
let pristine_app =
  {|
long depths(long n, long acc) {
  if (n == 0) return acc;
  return depths(n - 1, acc + n);
}
long main(void) {
  printf("%d %d %d\n", depths(3, 0), depths(7, 100), depths(1, 5));
  return 0;
}
|}

let test_pristine_regv () =
  let exe = compile pristine_app in
  (* trace the uninstrumented run *)
  let target =
    match Objfile.Exe.find_symbol exe "depths" with
    | Some s -> s.Objfile.Exe.x_addr
    | None -> Alcotest.fail "no symbol depths"
  in
  let m0 = Machine.Sim.load exe in
  let traced = ref [] in
  Machine.Sim.set_trace m0 (fun pc _ ->
      if pc = target then
        traced :=
          (Machine.Sim.reg m0 Alpha.Reg.sp, Machine.Sim.reg m0 16) :: !traced);
  (match Machine.Sim.run m0 with Machine.Sim.Exit 0 -> () | _ -> assert false);
  let traced = List.rev !traced in
  (* the same observations via ATOM *)
  let tool api =
    let open Atom.Api in
    add_call_proto api "Snap(REGV, REGV)";
    add_call_proto api "Done()";
    (match List.find_opt (fun p -> proc_name p = "depths") (procs api) with
    | Some p ->
        add_call_proc api p Before "Snap" [ Regv Alpha.Reg.sp; Regv 16 ]
    | None -> Alcotest.fail "depths not found in IR");
    add_call_program api Program_after "Done" []
  in
  let analysis =
    {|
void *f;
void Snap(long sp, long a0) {
  if (!f) f = fopen("snap.out", "w");
  fprintf(f, "%x %d\n", sp, a0);
}
void Done(void) { if (f) fclose(f); }
|}
  in
  let exe', _ = Atom.Instrument.instrument_source ~exe ~tool ~analysis_src:analysis () in
  let m1 = run exe' in
  let got =
    match List.assoc_opt "snap.out" (Machine.Sim.output_files m1) with
    | Some s ->
        String.split_on_char '\n' (String.trim s)
        |> List.map (fun line ->
               match String.split_on_char ' ' line with
               | [ sp; a0 ] -> (Int64.of_string ("0x" ^ sp), Int64.of_string a0)
               | _ -> Alcotest.failf "bad snap line %S" line)
    | None -> Alcotest.fail "no snap.out"
  in
  Alcotest.(check int) "same number of entries" (List.length traced) (List.length got);
  List.iter2
    (fun (sp0, a0) (sp1, a1) ->
      Alcotest.(check int64) "sp pristine" sp0 sp1;
      Alcotest.(check int64) "a0 pristine" a0 a1)
    traced got

(* EffAddrValue: total memory references seen by the cache tool's analysis
   must match the simulator's load+store counters for the uninstrumented
   program (up to references made after the report hook fires). *)
let test_effaddr_totals () =
  let exe = compile pristine_app in
  let m0 = run exe in
  let st = Machine.Sim.stats m0 in
  let expected = st.Machine.Sim.st_loads + st.Machine.Sim.st_stores in
  let cache = Option.get (Tools.Registry.find "cache") in
  let exe', _ = Tools.Tool.apply cache exe in
  let m1 = run exe' in
  match List.assoc_opt "cache.out" (Machine.Sim.output_files m1) with
  | None -> Alcotest.fail "no cache.out"
  | Some contents ->
      let refs =
        String.split_on_char '\n' contents
        |> List.find_map (fun l ->
               match String.split_on_char ':' l with
               | [ "references"; v ] -> int_of_string_opt (String.trim v)
               | _ -> None)
      in
      let refs = Option.get refs in
      if refs > expected || expected - refs > 100 then
        Alcotest.failf "references %d vs simulator %d" refs expected

(* -- BrCondValue exactness -------------------------------------------------- *)

let test_brcond_exact () =
  let exe = compile pristine_app in
  let m0 = run exe in
  let st = Machine.Sim.stats m0 in
  let branch = Option.get (Tools.Registry.find "branch") in
  let exe', _ = Tools.Tool.apply branch exe in
  let m1 = run exe' in
  match List.assoc_opt "branch.out" (Machine.Sim.output_files m1) with
  | None -> Alcotest.fail "no branch.out"
  | Some contents ->
      let field prefix =
        String.split_on_char '\n' contents
        |> List.find_map (fun l ->
               if String.length l > String.length prefix
                  && String.sub l 0 (String.length prefix) = prefix
               then
                 int_of_string_opt
                   (String.trim
                      (String.sub l (String.length prefix)
                         (String.length l - String.length prefix)))
               else None)
      in
      let total = Option.get (field "conditional branches executed:") in
      let taken = Option.get (field "taken:") in
      (* tolerances: the branches in exit() after the report *)
      let within a b = a <= b && b - a <= 100 in
      if not (within total st.Machine.Sim.st_cond_branches) then
        Alcotest.failf "total %d vs %d" total st.Machine.Sim.st_cond_branches;
      if not (within taken st.Machine.Sim.st_taken) then
        Alcotest.failf "taken %d vs %d" taken st.Machine.Sim.st_taken

(* -- option matrix ----------------------------------------------------------- *)

let test_option_matrix () =
  let w = Option.get (Workloads.find "cover") in
  let exe = Workloads.compile w in
  let base = run exe in
  let tool = Option.get (Tools.Registry.find "branch") in
  List.iter
    (fun (label, options) ->
      let exe', _ = Tools.Tool.apply ~options tool exe in
      let m = run exe' in
      Alcotest.(check string)
        (label ^ ": output unchanged")
        (Machine.Sim.stdout base) (Machine.Sim.stdout m))
    [
      ("summary+wrapper", Atom.Instrument.default_options);
      ( "live+wrapper",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live } );
      ( "live+inline",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
          call_style = Atom.Instrument.Inline_saves } );
      ( "saveall+wrapper",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Save_all } );
      ( "summary+inline",
        { Atom.Instrument.default_options with
          Atom.Instrument.call_style = Atom.Instrument.Inline_saves } );
      ( "live+spliced",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
          call_style = Atom.Instrument.Inline_body } );
      ( "saveall+inline+partitioned",
        {
          Atom.Instrument.save_strategy = Atom.Instrument.Save_all;
          call_style = Atom.Instrument.Inline_saves;
          heap_mode = Atom.Instrument.Partitioned (1 lsl 23);
        } );
    ]

(* str arguments are interned and NUL-terminated *)
let test_str_args () =
  let exe = compile "long main(void) { return 0; }" in
  let tool api =
    let open Atom.Api in
    add_call_proto api "Tag(char *, char *)";
    add_call_proto api "Done()";
    add_call_program api Program_before "Tag" [ Str "alpha"; Str "beta" ];
    add_call_program api Program_before "Tag" [ Str "alpha"; Str "alpha" ];
    add_call_program api Program_after "Done" []
  in
  let analysis =
    {|
void *f;
void Tag(char *a, char *b) {
  if (!f) f = fopen("tags.out", "w");
  fprintf(f, "%s/%s/%d\n", a, b, a == b);
}
void Done(void) { fclose(f); }
|}
  in
  let exe', _ = Atom.Instrument.instrument_source ~exe ~tool ~analysis_src:analysis () in
  let m = run exe' in
  Alcotest.(check (option string)) "tags"
    (Some "alpha/beta/0\nalpha/alpha/1\n")
    (List.assoc_opt "tags.out" (Machine.Sim.output_files m))

(* -- edge instrumentation (our implementation of the paper's deferred
      "calls on edges") ------------------------------------------------- *)

let test_edges () =
  let exe =
    compile
      {|
long main(void) {
  long i, odd = 0, even = 0;
  for (i = 0; i < 100; i++) {
    if (i & 1) odd++;
    else even++;
  }
  printf("%d %d
", odd, even);
  return 0;
}
|}
  in
  let base = run exe in
  (* count taken and fall-through executions of every conditional branch
     via edges, and the same totals via BrCondValue; they must agree *)
  let tool api =
    let open Atom.Api in
    add_call_proto api "Edge(int)";
    add_call_proto api "Cond(VALUE)";
    add_call_proto api "Done()";
    List.iter
      (fun p ->
        List.iter
          (fun b ->
            let last = get_last_inst b in
            if is_inst_type last Inst_cond_branch then begin
              add_call_edge api b Taken "Edge" [ Int 0 ];
              add_call_edge api b Fallthrough "Edge" [ Int 1 ];
              add_call_inst api last Before "Cond" [ Br_cond_value ]
            end)
          (blocks p))
      (procs api);
    add_call_program api Program_after "Done" []
  in
  let analysis =
    {|
long __edges[2];
long __cond[2];
void Edge(long which) { __edges[which]++; }
void Cond(long taken) { if (taken) __cond[0]++; else __cond[1]++; }
void Done(void) {
  void *f = fopen("edges.out", "w");
  fprintf(f, "%d %d %d %d
", __edges[0], __edges[1], __cond[0], __cond[1]);
  fclose(f);
}
|}
  in
  let exe', _ = Atom.Instrument.instrument_source ~exe ~tool ~analysis_src:analysis () in
  let m = run exe' in
  Alcotest.(check string) "output unchanged" (Machine.Sim.stdout base)
    (Machine.Sim.stdout m);
  match List.assoc_opt "edges.out" (Machine.Sim.output_files m) with
  | None -> Alcotest.fail "no edges.out"
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | [ t; f; ct; cf ] ->
          Alcotest.(check string) "taken edges = taken conditions" ct t;
          Alcotest.(check string) "fall-through edges = untaken conditions" cf f;
          Alcotest.(check bool) "both edges executed" true
            (int_of_string t > 40 && int_of_string f > 40)
      | _ -> Alcotest.failf "bad edges.out %S" s)

let test_edge_errors () =
  let exe = compile "long main(void) { return 0; }" in
  match
    Atom.Instrument.instrument_source ~exe
      ~tool:(fun api ->
        let open Atom.Api in
        add_call_proto api "E()";
        (* the entry block of __start ends in a bsr: no taken edge *)
        let b = Option.get (get_first_block (entry_proc api)) in
        add_call_edge api b Taken "E" [])
      ~analysis_src:"void E(void) {}" ()
  with
  | _ -> Alcotest.fail "taken edge on a call should be rejected"
  | exception Atom.Instrument.Error _ -> ()

(* the live-register optimization must never change behaviour: run every
   tool over a workload under Summary_and_live + Inline_saves *)
let test_liveness_all_tools () =
  let w = Option.get (Workloads.find "lisp") in
  let exe = Workloads.compile w in
  let base = run exe in
  List.iter
    (fun (style, slabel) ->
      let options =
        {
          Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
          call_style = style;
          heap_mode = Atom.Instrument.Linked;
        }
      in
      List.iter
        (fun tool ->
          let exe', _ = Tools.Tool.apply ~options tool exe in
          let m = run exe' in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s output unchanged" tool.Tools.Tool.name slabel)
            (Machine.Sim.stdout base) (Machine.Sim.stdout m))
        Tools.Registry.all)
    [ (Atom.Instrument.Inline_saves, "inline-saves");
      (Atom.Instrument.Inline_body, "spliced") ]

(* liveness should reduce the instrumented program's work *)
let test_liveness_reduces_overhead () =
  let w = Option.get (Workloads.find "sieve") in
  let exe = Workloads.compile w in
  let tool = Option.get (Tools.Registry.find "cache") in
  let insns options =
    let exe', _ = Tools.Tool.apply ~options tool exe in
    (Machine.Sim.stats (run exe')).Machine.Sim.st_insns
  in
  let base = insns Atom.Instrument.default_options in
  let live =
    insns
      { Atom.Instrument.default_options with
        Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live }
  in
  if live >= base then
    Alcotest.failf "liveness did not help: %d vs %d" live base

let () =
  Alcotest.run "atom2"
    [
      ("proto", [ Alcotest.test_case "parsing" `Quick test_proto_parse ]);
      ( "api",
        [
          Alcotest.test_case "misuse errors" `Quick test_api_errors;
          Alcotest.test_case "instrumented input refused" `Quick
            test_reinstrument;
        ] );
      ( "pristine",
        [
          Alcotest.test_case "REGV sp/a0 vs trace" `Quick test_pristine_regv;
          Alcotest.test_case "EffAddrValue totals" `Quick test_effaddr_totals;
          Alcotest.test_case "BrCondValue totals" `Quick test_brcond_exact;
        ] );
      ( "options",
        [
          Alcotest.test_case "matrix preserves behaviour" `Quick test_option_matrix;
          Alcotest.test_case "interned strings" `Quick test_str_args;
        ] );
      ( "edges",
        [
          Alcotest.test_case "edge counts agree with conditions" `Quick test_edges;
          Alcotest.test_case "invalid edges rejected" `Quick test_edge_errors;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "all tools behave" `Quick test_liveness_all_tools;
          Alcotest.test_case "overhead reduced" `Quick test_liveness_reduces_overhead;
        ] );
    ]
