(* Benchmark harness: regenerates the paper's evaluation.

   Figure 5 - time for ATOM to instrument the benchmark suite with each
   registered tool (host wall-clock; the paper measured seconds on an
   Alpha 3000/400 over 20 SPEC92 programs).  Measured in three cache
   states — emptied before every call, one sweep from empty, the sweep
   again warm — with every instrumented image byte-compared across all
   three before timings are reported; results go to BENCH_atom.json.

   Figure 6 - execution-time ratio of instrumented vs uninstrumented
   programs per tool (we measure simulated instructions, the paper
   measured wall-clock; shapes are comparable, absolute values are not).

   Ablations - the design alternatives of paper section 4: wrapper
   routines vs inlined saves, dataflow-summary register saving vs
   save-all, and the linked vs partitioned heap.

   Perf - simulator-engine comparison: every workload, uninstrumented
   and instrumented with each tool, run under both the reference
   interpreter and the closure-compiled fast engine; checks that the two
   agree bit-for-bit and reports simulated instructions per second and
   the speedup ratio, writing the results to BENCH_sim.json.

   Faults - the fail-closed campaign: seeded syscall errors, corrupted
   images and fuel cutoffs over plain and instrumented workloads; writes
   BENCH_faults.json and demands zero escaped exceptions and zero
   engine disagreements.

   Wcet - static worst-case path bounds: records flow facts with the
   trace tool, solves the IPET integer program per procedure, and
   asserts the static bound dominates the measured cycles for every
   workload on both engines; writes BENCH_wcet.json.

   Usage: see [usage] at the end of this file.  A [--smoke] run writes
   BENCH_<name>.smoke.json instead of the committed baseline, and so
   does a soak with a non-default seed, count or size. *)

let time_it fn =
  let t0 = Unix.gettimeofday () in
  let r = fn () in
  (r, Unix.gettimeofday () -. t0)

let hrule width = print_endline (String.make width '-')

(* the named workloads and tools, in suite order *)
let workloads_named names =
  List.filter (fun w -> List.mem w.Workloads.w_name names) Workloads.all

let tools_named names =
  List.filter (fun t -> List.mem t.Tools.Tool.name names) Tools.Registry.all

(* Where a verb writes its results: a full run replaces the committed
   baseline [BENCH_<name>.json]; a [--smoke] run writes
   [BENCH_<name>.smoke.json] beside it, which git ignores. *)
let bench_path ~smoke name =
  Printf.sprintf "BENCH_%s%s.json" name (if smoke then ".smoke" else "")

(* -- shared runs -------------------------------------------------------- *)

(* keyed per engine: the cached instruction counts are engine-independent
   (the engines are differentially tested to agree), but the timing work
   in [perf] must not hand one engine a cache warmed by the other *)
let base_cache : (string, Objfile.Exe.t * (int * int)) Hashtbl.t = Hashtbl.create 16

let base_of2 ?(engine = Machine.Sim.Fast) w =
  let key = w.Workloads.w_name ^ "/" ^ Machine.Sim.engine_name engine in
  match Hashtbl.find_opt base_cache key with
  | Some x -> x
  | None ->
      let exe = Workloads.compile w in
      let outcome, m = Workloads.run_exe ~engine exe in
      (match outcome with
      | Machine.Sim.Exit 0 -> ()
      | _ -> failwith (w.Workloads.w_name ^ ": base run failed"));
      let st = Machine.Sim.stats m in
      let v = (exe, (st.Machine.Sim.st_insns, st.Machine.Sim.st_pair_cycles)) in
      Hashtbl.replace base_cache key v;
      v

let base_of ?engine w =
  let exe, (insns, _) = base_of2 ?engine w in
  (exe, insns)

let run_instrumented2 ?engine exe' name =
  let outcome, m = Workloads.run_exe ?engine exe' in
  (match outcome with
  | Machine.Sim.Exit 0 -> ()
  | Machine.Sim.Exit n -> failwith (Printf.sprintf "%s: exit %d" name n)
  | Machine.Sim.Fault f ->
      failwith (Printf.sprintf "%s: fault %s" name (Machine.Fault.to_string f))
  | Machine.Sim.Out_of_fuel -> failwith (name ^ ": out of fuel"));
  let st = Machine.Sim.stats m in
  (st.Machine.Sim.st_insns, st.Machine.Sim.st_pair_cycles)

let run_instrumented ?engine exe' name = fst (run_instrumented2 ?engine exe' name)

(* -- Figure 5 ------------------------------------------------------------ *)

(* Empty the content-addressed toolchain caches (prepared analysis
   modules and compiled Mini-C user units), so the next instrumentation
   pays the full cold-start cost. *)
let clear_toolchain_caches () =
  Atom.Toolcache.clear ();
  Rtlib.clear_cache ()

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type fig5_row = {
  f_tool : string;
  f_first_secs : float;  (* caches emptied before every call *)
  f_cold_secs : float;  (* one sweep starting from empty caches *)
  f_warm_secs : float;  (* the sweep again, caches populated *)
  f_diverged : string list;  (* workloads whose images were not byte-identical *)
}

(* Figure 5, measured three ways per tool over the workload suite:

     first  the toolchain caches are emptied before every call, so each
            instrumentation pays the whole cost of a first call;
     cold   one sweep starting from empty caches: later workloads reuse
            what earlier ones prepared for the tool;
     warm   the sweep again, caches populated by the cold sweep.

   Every (tool, workload) cell byte-compares all three instrumented
   images; any divergence fails the run (exit 1) after the results are
   written.  [--smoke] shrinks the matrix for CI. *)
let fig5 ?(smoke = false) () =
  let workloads =
    if smoke then workloads_named [ "sieve"; "qsort"; "cells" ]
    else Workloads.all
  in
  let tools =
    if smoke then tools_named [ "branch"; "malloc" ] else Tools.Registry.all
  in
  print_endline "";
  print_endline
    "Figure 5: time taken by ATOM to instrument the benchmark suite";
  print_endline
    "(paper: 20 SPEC92 programs on an Alpha 3000/400; here: the workload";
  print_endline "stand-ins on the host machine; shape, not seconds, is comparable)";
  print_endline
    "first = caches emptied before every call, cold = one sweep from empty";
  print_endline "caches, warm = the sweep again with populated caches";
  print_endline "";
  Printf.printf "%-9s %-34s %8s %8s %8s %9s\n" "Tool" "Description"
    "first(s)" "cold(s)" "warm(s)" "paper(s)";
  hrule 82;
  let exes =
    List.map (fun w -> (w.Workloads.w_name, Workloads.compile w)) workloads
  in
  let rows =
    List.map
      (fun tool ->
        (* The timed region covers instrumentation only; serialisation
           for the byte-identity check happens outside it. *)
        let sweep ~pre () =
          let imgs, dt =
            time_it (fun () ->
                List.map
                  (fun (_, exe) ->
                    pre ();
                    fst (Tools.Tool.apply tool exe))
                  exes)
          in
          (List.map Objfile.Exe.to_string imgs, dt)
        in
        let first_imgs, first_t = sweep ~pre:clear_toolchain_caches () in
        clear_toolchain_caches ();
        let cold_imgs, cold_t = sweep ~pre:ignore () in
        let warm_imgs, warm_t = sweep ~pre:ignore () in
        let diverged =
          List.concat
            (List.map2
               (fun (name, _) (f, (c, w)) ->
                 if f = c && f = w then [] else [ name ])
               exes
               (List.combine first_imgs (List.combine cold_imgs warm_imgs)))
        in
        List.iter
          (fun name ->
            Printf.printf
              "FAIL %s/%s: instrumented images differ between cache states\n%!"
              tool.Tools.Tool.name name)
          diverged;
        Printf.printf "%-9s %-34s %8.3f %8.3f %8.3f %9.2f\n%!"
          tool.Tools.Tool.name tool.Tools.Tool.description first_t cold_t
          warm_t tool.Tools.Tool.paper_avg_instr_secs;
        { f_tool = tool.Tools.Tool.name; f_first_secs = first_t;
          f_cold_secs = cold_t; f_warm_secs = warm_t; f_diverged = diverged })
      tools
  in
  hrule 82;
  let tot f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let tot_first = tot (fun r -> r.f_first_secs) in
  let tot_cold = tot (fun r -> r.f_cold_secs) in
  let tot_warm = tot (fun r -> r.f_warm_secs) in
  let divergences =
    List.fold_left (fun a r -> a + List.length r.f_diverged) 0 rows
  in
  let slowest =
    List.fold_left
      (fun (n, t) r ->
        if r.f_warm_secs > t then (r.f_tool, r.f_warm_secs) else (n, t))
      ("", 0.) rows
  in
  let fastest =
    List.fold_left
      (fun (n, t) r ->
        if r.f_warm_secs < t then (r.f_tool, r.f_warm_secs) else (n, t))
      ("", infinity) rows
  in
  Printf.printf "slowest to instrument: %s (paper: pipe)\n" (fst slowest);
  Printf.printf "fastest to instrument: %s (paper: malloc)\n" (fst fastest);
  Printf.printf "aggregate: first %.3fs  cold %.3fs  warm %.3fs\n" tot_first
    tot_cold tot_warm;
  Printf.printf "toolchain cache: %d hits, %d misses, %d entries\n"
    (Atom.Toolcache.hits ()) (Atom.Toolcache.misses ())
    (Atom.Toolcache.size ());
  (* hand-rolled JSON: the harness has no JSON dependency *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"atom-bench-instrument/2\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"workloads\": %d,\n" (List.length workloads));
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"tool\": \"%s\", \"first_secs\": %.6f, \"cold_secs\": %.6f, \
            \"warm_secs\": %.6f, \"diverged\": %d}%s\n"
           (json_escape r.f_tool) r.f_first_secs r.f_cold_secs r.f_warm_secs
           (List.length r.f_diverged)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"aggregate\": {\"first_secs\": %.6f, \"cold_secs\": %.6f, \
        \"warm_secs\": %.6f},\n"
       tot_first tot_cold tot_warm);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cache\": {\"hits\": %d, \"misses\": %d, \"entries\": %d},\n"
       (Atom.Toolcache.hits ()) (Atom.Toolcache.misses ())
       (Atom.Toolcache.size ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"divergences\": %d\n}\n" divergences);
  let path = bench_path ~smoke "atom" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows);
  if divergences > 0 then begin
    Printf.printf "%d image divergence(s) between cache states\n" divergences;
    exit 1
  end

(* -- Figure 6 ------------------------------------------------------------ *)

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let fig6 ?(tools = Tools.Registry.all) ?(workloads = Workloads.all) () =
  print_endline "";
  print_endline
    "Figure 6: execution of instrumented programs vs uninstrumented";
  print_endline
    "(ratio of simulated instruction counts, geometric mean over the suite)";
  print_endline "";
  Printf.printf "%-9s %-33s %5s %9s %9s %12s\n" "Tool" "Instrumentation points"
    "args" "insns" "cycles" "paper ratio";
  hrule 84;
  List.iter
    (fun tool ->
      let ratios =
        List.map
          (fun w ->
            let exe, (base_i, base_c) = base_of2 w in
            let exe', _ = Tools.Tool.apply tool exe in
            let insns, cycles =
              run_instrumented2 exe'
                (tool.Tools.Tool.name ^ "/" ^ w.Workloads.w_name)
            in
            ( float_of_int insns /. float_of_int base_i,
              float_of_int cycles /. float_of_int base_c ))
          workloads
      in
      Printf.printf "%-9s %-33s %5d %8.2fx %8.2fx %11.2fx\n%!" tool.Tools.Tool.name
        tool.Tools.Tool.points tool.Tools.Tool.nargs
        (geomean (List.map fst ratios))
        (geomean (List.map snd ratios))
        tool.Tools.Tool.paper_ratio)
    tools;
  hrule 84

(* -- ablations ------------------------------------------------------------ *)

let ablation_tools () =
  tools_named [ "branch"; "cache" ]

let ablate_wrapper () =
  print_endline "";
  print_endline "Ablation A: wrapper routines vs saves inlined at every site";
  print_endline
    "(paper section 4: the wrapper adds an indirection but avoids code explosion)";
  print_endline "";
  Printf.printf "%-9s %-12s %12s %14s\n" "Tool" "style" "run ratio" "text growth";
  hrule 52;
  List.iter
    (fun tool ->
      List.iter
        (fun (style, label) ->
          let options =
            { Atom.Instrument.default_options with
              Atom.Instrument.call_style = style }
          in
          let w = Option.get (Workloads.find "compress") in
          let exe, base = base_of w in
          let exe', info = Tools.Tool.apply ~options tool exe in
          let insns = run_instrumented exe' (tool.Tools.Tool.name ^ "-" ^ label) in
          Printf.printf "%-9s %-12s %11.2fx %13dK\n%!" tool.Tools.Tool.name label
            (float_of_int insns /. float_of_int base)
            (info.Atom.Instrument.i_text_growth / 1024))
        [ (Atom.Instrument.Wrapper, "wrapper");
          (Atom.Instrument.Inline_saves, "inline") ])
    (ablation_tools ())

let ablate_saves () =
  print_endline "";
  print_endline
    "Ablation B: dataflow-summary register saving vs save-all-caller-save";
  print_endline
    "(paper section 4: summaries cut the registers saved around each call)";
  print_endline "";
  Printf.printf "%-9s %-10s %12s %14s\n" "Tool" "saves" "run ratio" "text growth";
  hrule 50;
  List.iter
    (fun tool ->
      List.iter
        (fun (strategy, label) ->
          let options =
            { Atom.Instrument.default_options with
              Atom.Instrument.save_strategy = strategy }
          in
          let w = Option.get (Workloads.find "compress") in
          let exe, base = base_of w in
          let exe', info = Tools.Tool.apply ~options tool exe in
          let insns = run_instrumented exe' (tool.Tools.Tool.name ^ "-" ^ label) in
          Printf.printf "%-9s %-10s %11.2fx %13dK\n%!" tool.Tools.Tool.name label
            (float_of_int insns /. float_of_int base)
            (info.Atom.Instrument.i_text_growth / 1024))
        [ (Atom.Instrument.Summary, "summary"); (Atom.Instrument.Save_all, "all") ])
    (ablation_tools ())

let ablate_liveness () =
  print_endline "";
  print_endline
    "Ablation D: live-register filtering of saves (the paper's planned";
  print_endline "optimization, implemented here as Summary_and_live)";
  print_endline "";
  Printf.printf "%-9s %-22s %12s %14s\n" "Tool" "saves" "run ratio" "text growth";
  hrule 62;
  List.iter
    (fun tool ->
      List.iter
        (fun (options, label) ->
          let w = Option.get (Workloads.find "compress") in
          let exe, base = base_of w in
          let exe', info = Tools.Tool.apply ~options tool exe in
          let insns = run_instrumented exe' (tool.Tools.Tool.name ^ "-" ^ label) in
          Printf.printf "%-9s %-22s %11.2fx %13dK\n%!" tool.Tools.Tool.name label
            (float_of_int insns /. float_of_int base)
            (info.Atom.Instrument.i_text_growth / 1024))
        [
          (Atom.Instrument.default_options, "summary");
          ( { Atom.Instrument.default_options with
              Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live },
            "summary+live" );
          ( { Atom.Instrument.default_options with
              Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
              call_style = Atom.Instrument.Inline_saves },
            "summary+live+inline" );
          ( { Atom.Instrument.default_options with
              Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
              call_style = Atom.Instrument.Inline_body },
            "summary+live+spliced" );
          ( { Atom.Instrument.default_options with
              Atom.Instrument.call_style = Atom.Instrument.Specialized },
            "specialized" );
        ])
    (ablation_tools ())

let ablate_heap () =
  print_endline "";
  print_endline "Ablation C: linked vs partitioned sbrk (paper section 4, heap modes)";
  print_endline "";
  let w = Option.get (Workloads.find "lisp") in
  let exe, base = base_of w in
  let malloc_tool = Option.get (Tools.Registry.find "malloc") in
  List.iter
    (fun (mode, label) ->
      let options =
        { Atom.Instrument.default_options with Atom.Instrument.heap_mode = mode }
      in
      let exe', _ = Tools.Tool.apply ~options malloc_tool exe in
      let insns = run_instrumented exe' ("heap-" ^ label) in
      Printf.printf "  %-14s ok, ratio %.3fx\n%!" label
        (float_of_int insns /. float_of_int base))
    [ (Atom.Instrument.Linked, "linked");
      (Atom.Instrument.Partitioned (1 lsl 24), "partitioned") ]

(* -- verification sweep --------------------------------------------------- *)

let option_label (o : Atom.Instrument.options) =
  let s =
    match o.Atom.Instrument.save_strategy with
    | Atom.Instrument.Summary -> "summary"
    | Atom.Instrument.Save_all -> "save-all"
    | Atom.Instrument.Summary_and_live -> "summary+live"
  in
  let c =
    match o.Atom.Instrument.call_style with
    | Atom.Instrument.Wrapper -> "wrapper"
    | Atom.Instrument.Inline_saves -> "inline"
    | Atom.Instrument.Inline_body -> "spliced"
    | Atom.Instrument.Specialized -> "specialized"
  in
  let h =
    match o.Atom.Instrument.heap_mode with
    | Atom.Instrument.Linked -> "linked"
    | Atom.Instrument.Partitioned _ -> "partitioned"
  in
  Printf.sprintf "%s/%s/%s" s c h

let verify_sweep ?(quick = false) () =
  print_endline "";
  print_endline "Verify: checking instrumented images against the engine's audit";
  print_endline
    "(static: decoding, branch ranges, PC map, Figure-4 layout, stub frames";
  print_endline
    "and register saves; differential: original vs instrumented on the";
  print_endline "simulator — outcome, stdout, stderr, files, heap break)";
  let total = ref 0 in
  let failed = ref 0 in
  let issue_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let record label rep =
    incr total;
    if not (Verify.ok rep) then begin
      incr failed;
      Printf.printf "FAIL %s\n%s\n%!" label (Verify.report_to_string rep);
      List.iter
        (fun i ->
          Hashtbl.replace issue_counts i.Verify.v_check
            (1 + Option.value ~default:0
                   (Hashtbl.find_opt issue_counts i.Verify.v_check)))
        rep.Verify.r_issues
    end
  in
  let check ?(diff = false) options tool w =
    let exe, _ = base_of w in
    let label =
      Printf.sprintf "%s/%s [%s]" tool.Tools.Tool.name w.Workloads.w_name
        (option_label options)
    in
    match Tools.Tool.apply ~options tool exe with
    | exception e -> record label
        { Verify.r_checks = [];
          r_issues =
            [ { Verify.v_check = "instrument"; v_addr = None;
                v_detail = Printexc.to_string e } ] }
    | exe', info ->
        let rep = Verify.check_image ~original:exe ~instrumented:exe' ~info in
        let rep =
          if diff then
            Verify.merge rep
              (Verify.differential ~original:exe ~instrumented:exe'
                 ~heap_mode:options.Atom.Instrument.heap_mode ())
          else rep
        in
        record label rep
  in
  (* Pass 1: full tool x workload matrix at the default options, with the
     differential run.  In quick mode (CI smoke) only a small corner of the
     matrix runs, at the default options and under Specialized, and passes
     2 and 3 are skipped. *)
  let pass1_tools =
    if quick then tools_named [ "branch"; "malloc" ] else Tools.Registry.all
  in
  let pass1_workloads =
    if quick then workloads_named [ "sieve"; "qsort" ] else Workloads.all
  in
  let pass1 options =
    List.iter
      (fun tool ->
        let before = !failed in
        List.iter (check ~diff:true options tool) pass1_workloads;
        Printf.printf "  %-9s %s\n%!" tool.Tools.Tool.name
          (if !failed = before then "ok"
           else Printf.sprintf "%d FAILURE(S)" (!failed - before)))
      pass1_tools
  in
  print_endline "";
  print_endline "pass 1: every tool x workload, default options, static + differential";
  pass1 Atom.Instrument.default_options;
  if quick then begin
    (* the corner again under Specialized: its two-sided stub-saves check
       reads the original's liveness from the toolchain cache *)
    print_endline "";
    print_endline "pass 1, specialized call stubs: the same corner, static + differential";
    pass1
      { Atom.Instrument.default_options with
        Atom.Instrument.call_style = Atom.Instrument.Specialized };
    print_endline "";
    Printf.printf "verified %d images, %d failure(s)\n" !total !failed;
    if !failed > 0 then exit 1
  end
  else begin
  (* Pass 2: the full option cross product (save strategies x heap modes),
     statically, for every tool and workload. *)
  print_endline "";
  print_endline
    "pass 2: every tool x workload x save strategy x heap mode, static";
  let strategies =
    [ Atom.Instrument.Summary; Atom.Instrument.Save_all;
      Atom.Instrument.Summary_and_live ]
  in
  let heaps =
    [ Atom.Instrument.Linked; Atom.Instrument.Partitioned (1 lsl 24) ]
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun heap ->
          let options =
            { Atom.Instrument.default_options with
              Atom.Instrument.save_strategy = strategy;
              heap_mode = heap }
          in
          let before = !failed in
          List.iter
            (fun tool -> List.iter (check options tool) Workloads.all)
            Tools.Registry.all;
          Printf.printf "  %-28s %s\n%!" (option_label options)
            (if !failed = before then "ok"
             else Printf.sprintf "%d FAILURE(S)" (!failed - before)))
        heaps)
    strategies;
  (* Pass 3: every option combination including call styles, static +
     differential, on a representative subset. *)
  print_endline "";
  print_endline
    "pass 3: all option combinations, representative subset, static + differential";
  let styles =
    [ Atom.Instrument.Wrapper; Atom.Instrument.Inline_saves;
      Atom.Instrument.Inline_body; Atom.Instrument.Specialized ]
  in
  let sub_tools = tools_named [ "branch"; "cache"; "malloc" ] in
  let sub_workloads = workloads_named [ "compress"; "lisp"; "sieve" ] in
  List.iter
    (fun strategy ->
      List.iter
        (fun style ->
          List.iter
            (fun heap ->
              let options =
                { Atom.Instrument.save_strategy = strategy;
                  call_style = style;
                  heap_mode = heap }
              in
              let before = !failed in
              List.iter
                (fun tool ->
                  List.iter (check ~diff:true options tool) sub_workloads)
                sub_tools;
              Printf.printf "  %-28s %s\n%!" (option_label options)
                (if !failed = before then "ok"
                 else Printf.sprintf "%d FAILURE(S)" (!failed - before)))
            heaps)
        styles)
    strategies;
  print_endline "";
  Printf.printf "verified %d images, %d failure(s)\n" !total !failed;
  if !failed > 0 then begin
    Hashtbl.iter
      (fun check n -> Printf.printf "  %-18s %d issue(s)\n" check n)
      issue_counts;
    exit 1
  end
  end

(* -- bechamel micro-benchmarks ------------------------------------------- *)

let bechamel ?(cold = false) () =
  let open Bechamel in
  let compress = Option.get (Workloads.find "compress") in
  let exe, _ = base_of compress in
  let instrument_test tool_name =
    let tool = Option.get (Tools.Registry.find tool_name) in
    (* With [--cold] the caches are emptied inside the measured thunk, so
       every sample pays the cold-start instrumentation cost. *)
    Test.make ~name:(Printf.sprintf "fig5/instrument-%s" tool_name)
      (Staged.stage (fun () ->
           if cold then clear_toolchain_caches ();
           ignore (Tools.Tool.apply tool exe)))
  in
  let run_test tool_name =
    let tool = Option.get (Tools.Registry.find tool_name) in
    let exe', _ = Tools.Tool.apply tool exe in
    Test.make ~name:(Printf.sprintf "fig6/run-%s" tool_name)
      (Staged.stage (fun () -> ignore (run_instrumented exe' tool_name)))
  in
  let tests =
    Test.make_grouped ~name:"atom"
      [ instrument_test "malloc"; instrument_test "branch";
        instrument_test "pipe"; run_test "inline" ]
  in
  let cfg = Benchmark.cfg ~limit:6 ~quota:(Time.second 2.0) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  print_endline "";
  print_endline "Bechamel micro-benchmarks (ns per call, OLS on monotonic clock):";
  (* sorted: hash-table order is not deterministic run to run *)
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "  %-28s %12.0f ns\n" name est
         | _ -> Printf.printf "  %-28s (no estimate)\n" name)

(* -- engine performance sweep --------------------------------------------- *)

(* Every workload, uninstrumented and instrumented with each tool, run
   under both engines.  Each cell checks full behavioural agreement
   (outcome, the entire statistics record, stdout, stderr, output files,
   final heap break) before its timing is trusted; any disagreement
   fails the sweep.  The headline number is the aggregate: total
   simulated instructions over total seconds per engine, which averages
   out the per-cell timer noise.  [min_speedup] is the CI regression
   floor: the sweep fails if the fast aggregate drops below it. *)

type perf_row = {
  p_workload : string;
  p_tool : string option;
  p_insns : int;
  p_ref_secs : float;
  p_fast_secs : float;
  p_agree : bool;
}

let perf ?(smoke = false) ?min_speedup () =
  let workloads =
    if smoke then workloads_named [ "sieve"; "qsort"; "cells" ]
    else Workloads.all
  in
  let tools =
    if smoke then tools_named [ "branch"; "inline" ] else Tools.Registry.all
  in
  let configs = None :: List.map Option.some tools in
  print_endline "";
  Printf.printf
    "Engine sweep%s: %d workloads x %d configurations (uninstrumented + tools)\n"
    (if smoke then " (smoke)" else "")
    (List.length workloads) (List.length configs);
  print_endline
    "each cell runs under both engines and must agree on outcome, statistics,";
  print_endline "stdout/stderr, output files and heap break before it is timed";
  print_endline "";
  Printf.printf "%-10s %-9s %11s %9s %9s %8s\n" "Workload" "Tool" "insns"
    "ref Mips" "fast Mips" "speedup";
  hrule 62;
  let mismatches = ref 0 in
  let rows = ref [] in
  List.iter
    (fun w ->
      let exe = Workloads.compile w in
      List.iter
        (fun tool_opt ->
          let tool_name =
            match tool_opt with None -> "-" | Some t -> t.Tools.Tool.name
          in
          let cell = w.Workloads.w_name ^ "/" ^ tool_name in
          let exe' =
            match tool_opt with
            | None -> exe
            | Some t -> fst (Tools.Tool.apply t exe)
          in
          let run engine =
            let (outcome, m), secs =
              time_it (fun () -> Workloads.run_exe ~engine exe')
            in
            (outcome, m, secs)
          in
          let o_ref, m_ref, s_ref = run Machine.Sim.Ref in
          let o_fast, m_fast, s_fast = run Machine.Sim.Fast in
          let agree =
            o_ref = o_fast
            && Machine.Sim.stats m_ref = Machine.Sim.stats m_fast
            && Machine.Sim.stdout m_ref = Machine.Sim.stdout m_fast
            && Machine.Sim.stderr m_ref = Machine.Sim.stderr m_fast
            && Machine.Sim.output_files m_ref = Machine.Sim.output_files m_fast
            && Machine.Sim.brk m_ref = Machine.Sim.brk m_fast
          in
          if not agree then begin
            incr mismatches;
            Printf.printf "FAIL %s: fast engine disagrees with reference\n%!"
              cell
          end;
          let insns = (Machine.Sim.stats m_ref).Machine.Sim.st_insns in
          rows :=
            {
              p_workload = w.Workloads.w_name;
              p_tool = Option.map (fun t -> t.Tools.Tool.name) tool_opt;
              p_insns = insns;
              p_ref_secs = s_ref;
              p_fast_secs = s_fast;
              p_agree = agree;
            }
            :: !rows;
          Printf.printf "%-10s %-9s %11d %9.1f %9.1f %7.2fx\n%!"
            w.Workloads.w_name tool_name insns
            (float_of_int insns /. s_ref /. 1e6)
            (float_of_int insns /. s_fast /. 1e6)
            (s_ref /. s_fast))
        configs)
    workloads;
  hrule 62;
  let rows = List.rev !rows in
  let tot_insns =
    List.fold_left (fun a r -> a + r.p_insns) 0 rows |> float_of_int
  in
  let tot_ref = List.fold_left (fun a r -> a +. r.p_ref_secs) 0.0 rows in
  let tot_fast = List.fold_left (fun a r -> a +. r.p_fast_secs) 0.0 rows in
  let ref_ips = tot_insns /. tot_ref and fast_ips = tot_insns /. tot_fast in
  let speedup = fast_ips /. ref_ips in
  Printf.printf
    "aggregate: %.0fM insns  ref %.1fM ips  fast %.1fM ips  speedup %.2fx\n"
    (tot_insns /. 1e6) (ref_ips /. 1e6) (fast_ips /. 1e6) speedup;
  (* hand-rolled JSON: the harness has no JSON dependency *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"atom-bench-sim/3\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"engines\": [\"ref\", \"fast\"],\n"
       smoke);
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"tool\": %s, \"insns\": %d, \
            \"ref_secs\": %.6f, \"fast_secs\": %.6f, \"ref_ips\": %.0f, \
            \"fast_ips\": %.0f, \"speedup\": %.3f, \"agree\": %b}%s\n"
           (json_escape r.p_workload)
           (match r.p_tool with
           | None -> "null"
           | Some t -> "\"" ^ json_escape t ^ "\"")
           r.p_insns r.p_ref_secs r.p_fast_secs
           (float_of_int r.p_insns /. r.p_ref_secs)
           (float_of_int r.p_insns /. r.p_fast_secs)
           (r.p_ref_secs /. r.p_fast_secs)
           r.p_agree
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"aggregate\": {\"insns\": %.0f, \"ref_secs\": %.6f, \"fast_secs\": \
        %.6f, \"ref_ips\": %.0f, \"fast_ips\": %.0f, \"speedup\": %.3f},\n"
       tot_insns tot_ref tot_fast ref_ips fast_ips speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"mismatches\": %d\n}\n" !mismatches);
  let path = bench_path ~smoke "sim" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows);
  if !mismatches > 0 then begin
    Printf.printf "%d cell(s) disagreed between engines\n" !mismatches;
    exit 1
  end;
  match min_speedup with
  | Some floor ->
      if speedup < floor then begin
        Printf.printf
          "aggregate speedup %.2fx is below the recorded floor %.2fx\n"
          speedup floor;
        exit 1
      end
  | None -> ()

(* -- fault-injection campaign ------------------------------------------- *)

(* Drive the seeded fault-injection corpus (syscall errors, corrupted
   images, fuel cutoffs) over a spread of workloads, plain and
   instrumented.  The machine must fail closed: zero OCaml exceptions
   escaping, zero ref/fast disagreements.  Results go to
   BENCH_faults.json; any escape also drops its reproducible case labels
   into BENCH_faults_failing.txt for the CI artifact. *)
let faults ?(smoke = false) () =
  let workload_names =
    if smoke then [ "cover"; "qsort" ]
    else [ "cover"; "qsort"; "sieve"; "compress"; "matmul" ]
  in
  let tool_names = if smoke then [ "dyninst" ] else [ "dyninst"; "prof"; "trace" ] in
  let workloads = workloads_named workload_names in
  let tools = tools_named tool_names in
  let scale n = if smoke then max 1 (n / 4) else n in
  let subjects =
    List.concat_map
      (fun w ->
        let exe = Workloads.compile w in
        (w.Workloads.w_name, exe)
        :: List.map
             (fun t ->
               ( t.Tools.Tool.name ^ "/" ^ w.Workloads.w_name,
                 fst (Tools.Tool.apply t exe) ))
             tools)
      workloads
  in
  Printf.printf "fault injection%s: %d subjects\n%!"
    (if smoke then " (smoke)" else "")
    (List.length subjects);
  let reports =
    List.mapi
      (fun i (name, exe) ->
        let r =
          Faultinject.campaign ~seed:(i + 1) ~syscall_cases:(scale 24)
            ~image_cases:(scale 48) ~fuel_cases:(scale 12) exe
        in
        Printf.printf "  %-18s %4d cases, %d escapes, %d mismatches\n%!" name
          r.Faultinject.r_cases
          (List.length r.Faultinject.r_escapes)
          (List.length r.Faultinject.r_mismatches);
        r)
      subjects
  in
  let total = Faultinject.merge reports in
  let path = bench_path ~smoke "faults" in
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"fault-injection\",\n";
  output_string oc (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  output_string oc (Printf.sprintf "  \"subjects\": %d,\n" (List.length subjects));
  let inner = Faultinject.report_to_json total in
  (* splice the report's fields into this object: drop its braces *)
  let inner = String.sub inner 2 (String.length inner - 5) in
  output_string oc inner;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d cases)\n" path total.Faultinject.r_cases;
  if not (Faultinject.ok total) then begin
    let oc = open_out "BENCH_faults_failing.txt" in
    List.iter
      (fun e ->
        Printf.fprintf oc "escape %s: %s\n" e.Faultinject.e_case
          e.Faultinject.e_detail)
      total.Faultinject.r_escapes;
    List.iter
      (fun e ->
        Printf.fprintf oc "mismatch %s: %s\n" e.Faultinject.e_case
          e.Faultinject.e_detail)
      total.Faultinject.r_mismatches;
    close_out oc;
    Printf.printf
      "FAULT-INJECTION FAILURES: %d escapes, %d mismatches (see \
       BENCH_faults_failing.txt)\n"
      (List.length total.Faultinject.r_escapes)
      (List.length total.Faultinject.r_mismatches);
    exit 1
  end

(* -- soak ---------------------------------------------------------------- *)

(* Fleet-scale differential soak: generate seeded Mini-C programs with
   Progen, compile each through the Mini-C toolchain, instrument it with
   every registered tool, run original and instrumented images on both
   engines under protection ceilings, and compare everything against the
   generator's interpreter-independent oracle:

     - the original's stdout must equal the oracle's prediction on both
       engines (catches miscompiles anywhere in the stack);
     - Ref and Fast must agree bit-for-bit on outcome, stdout, stderr,
       stats and final break, instrumented or not (the PR-2 guarantee,
       now over an unbounded program space);
     - every instrumented run must preserve the original's outcome and
       stdout (the paper's transparency property, tools report via
       files, never stdout);
     - nothing may escape as a raw exception (the PR-5 guarantee).

   Any failure is persisted with a one-line repro command, minimized
   with Progen.shrink, and written to test/corpus/ as a regression
   candidate.  Results go to BENCH_soak.json only from the full default
   run (seed 1, 1000 programs, cycling sizes); any other run — a repro
   command, a [--smoke] run — writes BENCH_soak.smoke.json. *)

let soak_fuel = 100_000_000

type soak_obs = {
  so_outcome : Machine.Sim.outcome;
  so_stdout : string;
  so_stderr : string;
  so_brk : int;
  so_stats : Machine.Sim.stats;
}

let soak_observe ~engine exe =
  let m = Machine.Sim.load ~engine exe in
  let so_outcome = Machine.Sim.run ~max_insns:soak_fuel m in
  {
    so_outcome;
    so_stdout = Machine.Sim.stdout m;
    so_stderr = Machine.Sim.stderr m;
    so_brk = Machine.Sim.brk m;
    so_stats = Machine.Sim.stats m;
  }

let soak_outcome_str = function
  | Machine.Sim.Exit n -> Printf.sprintf "exit %d" n
  | Machine.Sim.Fault f -> "fault " ^ Machine.Fault.to_string f
  | Machine.Sim.Out_of_fuel -> "out of fuel"

(* Engines must agree on everything; a run and its baseline must agree on
   what the program observably did. *)
let soak_engines_agree a b =
  a.so_outcome = b.so_outcome && a.so_stdout = b.so_stdout
  && a.so_stderr = b.so_stderr && a.so_brk = b.so_brk && a.so_stats = b.so_stats

type soak_failure = {
  sk_seed : int;
  sk_size : int;
  sk_kind : string;  (* "escape" for raw exceptions, "mismatch" otherwise *)
  sk_subject : string;  (* "minic", "baseline", or a tool name *)
  sk_detail : string;
  sk_repro : string;
}

exception Soak_failed of string * string * string  (* kind, subject, detail *)

(* Run the whole per-program differential check; raises Soak_failed on the
   first divergence.  Returns total instructions simulated (for the
   throughput report). *)
let soak_check_program tools t =
  let src = Progen.source t in
  let exe =
    try Rtlib.compile_and_link ~name:"soak.o" src with
    | Minic.Driver.Error msg ->
        raise (Soak_failed ("mismatch", "minic", "frontend rejection: " ^ msg))
    | e ->
        raise
          (Soak_failed ("escape", "minic", "compile raised " ^ Printexc.to_string e))
  in
  let observe ~subject ~engine exe =
    try soak_observe ~engine exe
    with e ->
      raise
        (Soak_failed
           ( "escape",
             subject,
             Printf.sprintf "%s engine raised %s"
               (Machine.Sim.engine_name engine)
               (Printexc.to_string e) ))
  in
  let insns = ref 0 in
  let differential ~subject exe =
    let ref_o = observe ~subject ~engine:Machine.Sim.Ref exe in
    let fast_o = observe ~subject ~engine:Machine.Sim.Fast exe in
    insns := !insns + ref_o.so_stats.Machine.Sim.st_insns
             + fast_o.so_stats.Machine.Sim.st_insns;
    if not (soak_engines_agree ref_o fast_o) then
      raise
        (Soak_failed
           ( "mismatch",
             subject,
             Printf.sprintf "ref/fast disagree: ref %s, fast %s"
               (soak_outcome_str ref_o.so_outcome)
               (soak_outcome_str fast_o.so_outcome) ));
    ref_o
  in
  (* baseline: both engines agree and match the oracle *)
  let base = differential ~subject:"baseline" exe in
  (match base.so_outcome with
  | Machine.Sim.Exit 0 -> ()
  | o ->
      raise
        (Soak_failed
           ("mismatch", "baseline", "uninstrumented run: " ^ soak_outcome_str o)));
  if not (String.equal base.so_stdout (Progen.expected_stdout t)) then
    raise
      (Soak_failed
         ( "mismatch",
           "baseline",
           Printf.sprintf "oracle mismatch: expected %d bytes, got %d bytes"
             (String.length (Progen.expected_stdout t))
             (String.length base.so_stdout) ));
  (* every tool: instrument, run differentially, demand transparency *)
  List.iter
    (fun tool ->
      let name = tool.Tools.Tool.name in
      let ixe =
        try fst (Tools.Tool.apply tool exe)
        with e ->
          raise
            (Soak_failed
               ("escape", name, "instrument raised " ^ Printexc.to_string e))
      in
      let obs = differential ~subject:name ixe in
      if obs.so_outcome <> base.so_outcome then
        raise
          (Soak_failed
             ( "mismatch",
               name,
               Printf.sprintf "outcome changed: %s -> %s"
                 (soak_outcome_str base.so_outcome)
                 (soak_outcome_str obs.so_outcome) ));
      if not (String.equal obs.so_stdout base.so_stdout) then
        raise
          (Soak_failed
             ("mismatch", name, "instrumented stdout differs from original")))
    tools;
  !insns

(* sizes cycle so one soak covers small and large programs *)
let soak_sizes = [| 2; 3; 4; 6; 8; 10; 12; 14 |]

let soak ?(smoke = false) ?(seed = 1) ?(count = 0) ?(size = 0) ?(atomd = false)
    ?(dump = false) () =
  let count = if count > 0 then count else if smoke then 25 else 1000 in
  let tools = Tools.Registry.all in
  let gen i =
    let size =
      if size > 0 then size
      else soak_sizes.(i mod Array.length soak_sizes)
    in
    Progen.generate ~seed:(seed + i) ~size ()
  in
  if dump then begin
    let t = gen 0 in
    print_string (Progen.source t);
    print_endline "/* expected stdout:";
    print_string (Progen.expected_stdout t);
    print_endline "*/";
    exit 0
  end;
  Printf.printf "soak%s: %d programs x %d tools x 2 engines, seeds %d..%d\n%!"
    (if smoke then " (smoke)" else "")
    count (List.length tools) seed
    (seed + count - 1);
  let failures = ref [] in
  let total_insns = ref 0 in
  let gen_secs = ref 0.0 in
  let check_secs = ref 0.0 in
  let corpus_sources = ref [] in
  let t0 = Unix.gettimeofday () in
  for i = 0 to count - 1 do
    let t, dt = time_it (fun () -> gen i) in
    gen_secs := !gen_secs +. dt;
    corpus_sources := (Progen.seed t, Progen.source t) :: !corpus_sources;
    (match time_it (fun () ->
         match soak_check_program tools t with
         | insns -> Ok insns
         | exception Soak_failed (kind, subject, detail) ->
             Error (kind, subject, detail)) with
    | Ok insns, dt ->
        total_insns := !total_insns + insns;
        check_secs := !check_secs +. dt
    | Error (kind, subject, detail), dt ->
        check_secs := !check_secs +. dt;
        Printf.printf "  FAIL seed=%d size=%d %s/%s: %s\n%!" (Progen.seed t)
          (Progen.size t) kind subject detail;
        (* minimize while preserving the same failure kind+subject *)
        let same_failure c =
          match soak_check_program tools c with
          | _ -> false
          | exception Soak_failed (k, s, _) -> k = kind && s = subject
        in
        let small = Progen.shrink t same_failure in
        let corpus_file =
          Printf.sprintf "test/corpus/progen_s%d.c" (Progen.seed t)
        in
        (try
           let oc = open_out corpus_file in
           Printf.fprintf oc "/* soak failure: %s/%s: %s\n   repro: %s */\n%s"
             kind subject detail (Progen.repro_hint t) (Progen.source small);
           close_out oc
         with Sys_error _ -> ());
        failures :=
          {
            sk_seed = Progen.seed t;
            sk_size = Progen.size t;
            sk_kind = kind;
            sk_subject = subject;
            sk_detail = detail;
            sk_repro = Progen.repro_hint t;
          }
          :: !failures);
    if (i + 1) mod 100 = 0 then begin
      Printf.printf "  %d/%d programs, %d Minsns, %.1f prog/s\n%!" (i + 1) count
        (!total_insns / 1_000_000)
        (float_of_int (i + 1) /. (Unix.gettimeofday () -. t0));
      (* bound memory growth over long runs *)
      clear_toolchain_caches ()
    end
  done;
  let total_secs = Unix.gettimeofday () -. t0 in
  let escapes = List.filter (fun f -> f.sk_kind = "escape") !failures in
  let mismatches = List.filter (fun f -> f.sk_kind <> "escape") !failures in
  (* optional atomd replay: a live daemon serves the same corpus *)
  let atomd_stats =
    if not atomd then None
    else begin
      let slice =
        (* instrument+run traffic: every corpus program with a rotating
           tool, both engines *)
        List.rev !corpus_sources
      in
      Printf.printf "atomd replay: %d programs over a live daemon\n%!"
        (List.length slice);
      let tmp = Filename.temp_file "atom-soak" "" in
      Sys.remove tmp;
      Unix.mkdir tmp 0o700;
      let sock = Filename.concat tmp "soak.sock" in
      let store = Filename.concat tmp "store" in
      clear_toolchain_caches ();
      let daemon = Serve.start ~cache_dir:store ~socket:sock () in
      let finally () =
        Serve.stop daemon;
        Atom.Toolcache.set_store None;
        let rec rm p =
          if Sys.is_directory p then begin
            Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
            Unix.rmdir p
          end
          else Sys.remove p
        in
        try rm tmp with Sys_error _ | Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      let c = Serve.Client.connect sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let requests = ref 0 and divergences = ref [] in
      let rt0 = Unix.gettimeofday () in
      List.iteri
        (fun i (sd, src) ->
          match Rtlib.compile_and_link ~name:"soak.o" src with
          | exception _ -> ()  (* already reported by the local phase *)
          | exe ->
              let bytes = Objfile.Exe.to_string exe in
              let tool = List.nth tools (i mod List.length tools) in
              let reply =
                Serve.Client.rpc c
                  (Serve.Protocol.Instrument
                     {
                       tool = tool.Tools.Tool.name;
                       options = Atom.Instrument.default_options;
                       exe = Serve.Protocol.Inline bytes;
                     })
              in
              incr requests;
              match reply with
              | Serve.Protocol.Instrumented { digest; _ } ->
                  List.iter
                    (fun engine ->
                      let reply =
                        Serve.Client.rpc c
                          (Serve.Protocol.Run
                             {
                               image = Serve.Protocol.Image digest;
                               stdin = "";
                               ceilings = Serve.Protocol.no_ceilings;
                               engine;
                             })
                      in
                      incr requests;
                      match reply with
                      | Serve.Protocol.Ran r -> (
                          let local = soak_observe ~engine
                              (fst (Tools.Tool.apply tool exe)) in
                          match r.Serve.Protocol.rr_outcome with
                          | Serve.Protocol.W_exit 0
                            when String.equal r.Serve.Protocol.rr_stdout
                                   local.so_stdout ->
                              ()
                          | _ ->
                              divergences :=
                                Printf.sprintf
                                  "seed %d tool %s engine %s: served run \
                                   diverges from local pipeline"
                                  sd tool.Tools.Tool.name
                                  (Machine.Sim.engine_name engine)
                                :: !divergences)
                      | _ ->
                          divergences :=
                            Printf.sprintf "seed %d: run request failed" sd
                            :: !divergences)
                    [ Machine.Sim.Ref; Machine.Sim.Fast ]
              | _ ->
                  divergences :=
                    Printf.sprintf "seed %d tool %s: instrument request failed"
                      sd tool.Tools.Tool.name
                    :: !divergences)
        slice;
      let secs = Unix.gettimeofday () -. rt0 in
      Some (!requests, secs, List.rev !divergences)
    end
  in
  (* report *)
  let baseline = (not smoke) && seed = 1 && count = 1000 && size = 0 in
  let path = bench_path ~smoke:(not baseline) "soak" in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"soak\",\n";
  p "  \"smoke\": %b,\n" smoke;
  p "  \"seed\": %d,\n" seed;
  p "  \"count\": %d,\n" count;
  p "  \"tools\": [%s],\n"
    (String.concat ", "
       (List.map (fun t -> "\"" ^ t.Tools.Tool.name ^ "\"") tools));
  p "  \"engines\": [\"ref\", \"fast\"],\n";
  p "  \"programs\": %d,\n" count;
  p "  \"runs_per_program\": %d,\n" (2 * (List.length tools + 1));
  p "  \"total_insns\": %d,\n" !total_insns;
  p "  \"gen_secs\": %.3f,\n" !gen_secs;
  p "  \"check_secs\": %.3f,\n" !check_secs;
  p "  \"total_secs\": %.3f,\n" total_secs;
  p "  \"programs_per_sec\": %.2f,\n" (float_of_int count /. total_secs);
  p "  \"insns_per_sec\": %.0f,\n" (float_of_int !total_insns /. total_secs);
  p "  \"escapes\": %d,\n" (List.length escapes);
  p "  \"mismatches\": %d,\n" (List.length mismatches);
  (match atomd_stats with
  | Some (reqs, secs, divs) ->
      p "  \"atomd\": { \"requests\": %d, \"secs\": %.3f, \"rps\": %.1f, \
         \"divergences\": %d },\n"
        reqs secs
        (float_of_int reqs /. secs)
        (List.length divs)
  | None -> ());
  p "  \"failures\": [%s]\n"
    (String.concat ",\n    "
       (List.rev_map
          (fun f ->
            Printf.sprintf
              "{ \"seed\": %d, \"size\": %d, \"kind\": \"%s\", \"subject\": \
               \"%s\", \"detail\": %S, \"repro\": %S }"
              f.sk_seed f.sk_size f.sk_kind f.sk_subject f.sk_detail f.sk_repro)
          !failures));
  p "}\n";
  close_out oc;
  Printf.printf
    "soak: %d programs, %d Minsns, %.1f prog/s, %d escapes, %d mismatches -> \
     %s\n%!"
    count
    (!total_insns / 1_000_000)
    (float_of_int count /. total_secs)
    (List.length escapes) (List.length mismatches) path;
  let atomd_divs =
    match atomd_stats with Some (_, _, divs) -> divs | None -> []
  in
  List.iter (fun d -> Printf.printf "  atomd divergence: %s\n%!" d) atomd_divs;
  if !failures <> [] || atomd_divs <> [] then begin
    let oc = open_out "BENCH_soak_failing.txt" in
    List.iter
      (fun f ->
        Printf.fprintf oc "%s %s seed=%d size=%d: %s\n  repro: %s\n" f.sk_kind
          f.sk_subject f.sk_seed f.sk_size f.sk_detail f.sk_repro)
      (List.rev !failures);
    List.iter (fun d -> Printf.fprintf oc "atomd: %s\n" d) atomd_divs;
    close_out oc;
    Printf.printf "SOAK FAILURES (see BENCH_soak_failing.txt and test/corpus/)\n";
    exit 1
  end

(* -- serving mode -------------------------------------------------------- *)

(* Load-generate against an in-process atomd: N concurrent clients drain
   a shared queue of instrument requests over a (workload x tool x
   option-variant) matrix, three times over — cold (fresh store, empty
   caches), warm (same daemon, in-memory cache hot) and disk (restarted
   daemon, in-memory cache dropped, same store) — then a run phase
   replays each workload's instrumented image.  Reports requests/sec and
   p50/p99 latency per phase into BENCH_serve.json, and byte-compares
   every served image and every run's stdout against the single-process
   pipeline: any divergence fails the bench. *)

type serve_phase = {
  sp_name : string;
  sp_requests : int;
  sp_secs : float;
  sp_rps : float;
  sp_p50_ms : float;
  sp_p99_ms : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (p * n / 100))

let serve_drive ~name ~clients sock items =
  let lock = Mutex.create () in
  let queue = Queue.create () in
  List.iter (fun it -> Queue.push it queue) items;
  let replies = ref [] in
  let lats = ref [] in
  let client () =
    let c = Serve.Client.connect sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let rec go () =
      Mutex.lock lock;
      let item = if Queue.is_empty queue then None else Some (Queue.pop queue) in
      Mutex.unlock lock;
      match item with
      | None -> ()
      | Some (id, req) ->
          let t0 = Unix.gettimeofday () in
          let reply = Serve.Client.rpc c req in
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.lock lock;
          replies := (id, reply) :: !replies;
          lats := dt :: !lats;
          Mutex.unlock lock;
          go ()
    in
    go ()
  in
  let t0 = Unix.gettimeofday () in
  let doms = List.init clients (fun _ -> Domain.spawn client) in
  List.iter Domain.join doms;
  let secs = Unix.gettimeofday () -. t0 in
  let lats = Array.of_list !lats in
  Array.sort compare lats;
  let n = List.length items in
  ( {
      sp_name = name;
      sp_requests = n;
      sp_secs = secs;
      sp_rps = float_of_int n /. secs;
      sp_p50_ms = 1000.0 *. percentile lats 50;
      sp_p99_ms = 1000.0 *. percentile lats 99;
    },
    !replies )

let serve_bench ?(smoke = false) () =
  let clients = 4 in
  let wl_names =
    if smoke then [ "cover"; "qsort" ]
    else [ "cover"; "qsort"; "sieve"; "bitvec"; "perm"; "hashtab" ]
  in
  let tool_names =
    if smoke then [ "prof"; "branch" ]
    else [ "prof"; "branch"; "syscall"; "malloc"; "dyninst" ]
  in
  let variants =
    [
      ("summary-wrapper", Atom.Instrument.default_options);
      ( "saveall-wrapper",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Save_all } );
      ( "live-inline",
        { Atom.Instrument.default_options with
          Atom.Instrument.save_strategy = Atom.Instrument.Summary_and_live;
          Atom.Instrument.call_style = Atom.Instrument.Inline_saves } );
    ]
  in
  Printf.printf "atomd load generator%s: %d clients, %d workloads x %d tools \
                 x %d option variants\n%!"
    (if smoke then " (smoke)" else "")
    clients (List.length wl_names) (List.length tool_names)
    (List.length variants);
  let workloads =
    List.map
      (fun n -> List.find (fun w -> w.Workloads.w_name = n) Workloads.all)
      wl_names
  in
  let exe_bytes =
    List.map
      (fun w -> (w.Workloads.w_name, Objfile.Exe.to_string (Workloads.compile w)))
      workloads
  in
  let items =
    List.concat_map
      (fun (wn, bytes) ->
        List.concat_map
          (fun tn ->
            List.map
              (fun (vn, options) ->
                ( wn ^ "/" ^ tn ^ "/" ^ vn,
                  Serve.Protocol.Instrument
                    { tool = tn; options; exe = Serve.Protocol.Inline bytes } ))
              variants)
          tool_names)
      (List.rev exe_bytes)
  in
  let tmp = Filename.temp_file "atom-serve-bench" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  let store = Filename.concat tmp "store" in
  let sock1 = Filename.concat tmp "cold.sock" in
  let sock2 = Filename.concat tmp "disk.sock" in
  Fun.protect ~finally:(fun () ->
      Atom.Toolcache.set_store None;
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      (try rm tmp with Sys_error _ | Unix.Unix_error _ -> ()))
  @@ fun () ->
  clear_toolchain_caches ();
  let t1 = Serve.start ~cache_dir:store ~socket:sock1 () in
  let cold, cold_replies = serve_drive ~name:"cold" ~clients sock1 items in
  let warm, warm_replies = serve_drive ~name:"warm" ~clients sock1 items in
  Serve.stop t1;
  (* restart: in-memory caches dropped, the store survives *)
  clear_toolchain_caches ();
  let t2 = Serve.start ~cache_dir:store ~socket:sock2 () in
  let disk, disk_replies = serve_drive ~name:"disk" ~clients sock2 items in
  (* run phase: each workload's default-variant image of the first tool,
     via the digest the disk-phase reply advertised *)
  let digest_of id =
    match List.assoc id disk_replies with
    | Serve.Protocol.Instrumented { digest; _ } -> digest
    | _ -> failwith ("no instrumented reply for " ^ id)
  in
  let run_items =
    List.map
      (fun wn ->
        let id = wn ^ "/" ^ List.hd tool_names ^ "/summary-wrapper" in
        ( "run/" ^ wn,
          Serve.Protocol.Run
            {
              image = Serve.Protocol.Image (digest_of id);
              stdin = "";
              ceilings = Serve.Protocol.no_ceilings;
              engine = Machine.Sim.Fast;
            } ))
      wl_names
  in
  let runs, run_replies = serve_drive ~name:"run" ~clients sock2 run_items in
  Serve.stop t2;
  Atom.Toolcache.set_store None;
  (* parity: every served image, from every phase, against the
     single-process pipeline *)
  let divergences = ref 0 in
  List.iter
    (fun (wn, bytes) ->
      let exe = Objfile.Exe.of_string bytes in
      List.iter
        (fun tn ->
          let tool = List.find (fun t -> t.Tools.Tool.name = tn) Tools.Registry.all in
          List.iter
            (fun (vn, options) ->
              let id = wn ^ "/" ^ tn ^ "/" ^ vn in
              let want =
                Objfile.Exe.to_string (fst (Tools.Tool.apply ~options tool exe))
              in
              List.iter
                (fun (phase, replies) ->
                  match List.assoc id replies with
                  | Serve.Protocol.Instrumented { image; _ } ->
                      if not (String.equal image want) then begin
                        incr divergences;
                        Printf.printf "  DIVERGENCE: %s (%s phase)\n" id phase
                      end
                  | _ ->
                      incr divergences;
                      Printf.printf "  DIVERGENCE: %s (%s phase): bad reply\n"
                        id phase)
                [ ("cold", cold_replies); ("warm", warm_replies);
                  ("disk", disk_replies) ])
            variants)
        tool_names)
    exe_bytes;
  let run_failures = ref 0 in
  List.iter
    (fun w ->
      let tool =
        List.find (fun t -> t.Tools.Tool.name = List.hd tool_names)
          Tools.Registry.all
      in
      let exe', _ = Tools.Tool.apply tool (Workloads.compile w) in
      let outcome, m = Workloads.run_exe exe' in
      let id = "run/" ^ w.Workloads.w_name in
      match (List.assoc id run_replies, outcome) with
      | Serve.Protocol.Ran r, Machine.Sim.Exit code ->
          let same =
            r.Serve.Protocol.rr_outcome = Serve.Protocol.W_exit code
            && String.equal r.Serve.Protocol.rr_stdout (Machine.Sim.stdout m)
            && r.Serve.Protocol.rr_stats.Machine.Sim.st_insns
               = (Machine.Sim.stats m).Machine.Sim.st_insns
          in
          if not same then begin
            incr run_failures;
            Printf.printf "  RUN DIVERGENCE: %s\n" id
          end
      | _ ->
          incr run_failures;
          Printf.printf "  RUN DIVERGENCE: %s: bad reply\n" id)
    workloads;
  let phases = [ cold; warm; disk; runs ] in
  hrule 78;
  Printf.printf "%-6s %9s %9s %11s %9s %9s\n" "phase" "requests" "secs"
    "req/s" "p50 ms" "p99 ms";
  hrule 78;
  List.iter
    (fun p ->
      Printf.printf "%-6s %9d %9.2f %11.1f %9.2f %9.2f\n" p.sp_name
        p.sp_requests p.sp_secs p.sp_rps p.sp_p50_ms p.sp_p99_ms)
    phases;
  hrule 78;
  let warm_over_cold = warm.sp_rps /. cold.sp_rps in
  Printf.printf
    "warm/cold throughput: %.1fx   divergences: %d   run parity failures: %d\n"
    warm_over_cold !divergences !run_failures;
  let path = bench_path ~smoke "serve" in
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"bench\": \"atomd serving mode\",\n";
  output_string oc
    (Printf.sprintf "  \"smoke\": %b,\n  \"clients\": %d,\n  \"workers\": %d,\n"
       smoke clients Serve.default_config.Serve.workers);
  output_string oc
    (Printf.sprintf "  \"workloads\": [%s],\n"
       (String.concat ", "
          (List.map (fun n -> "\"" ^ json_escape n ^ "\"") wl_names)));
  output_string oc
    (Printf.sprintf "  \"tools\": [%s],\n"
       (String.concat ", "
          (List.map (fun n -> "\"" ^ json_escape n ^ "\"") tool_names)));
  output_string oc
    (Printf.sprintf "  \"option_variants\": [%s],\n"
       (String.concat ", "
          (List.map (fun (n, _) -> "\"" ^ json_escape n ^ "\"") variants)));
  output_string oc "  \"phases\": [\n";
  List.iteri
    (fun i p ->
      output_string oc
        (Printf.sprintf
           "    {\"name\": \"%s\", \"requests\": %d, \"secs\": %.3f, \
            \"requests_per_sec\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n"
           p.sp_name p.sp_requests p.sp_secs p.sp_rps p.sp_p50_ms p.sp_p99_ms
           (if i = List.length phases - 1 then "" else ",")))
    phases;
  output_string oc "  ],\n";
  output_string oc
    (Printf.sprintf "  \"warm_over_cold\": %.2f,\n" warm_over_cold);
  output_string oc
    (Printf.sprintf "  \"divergences\": %d,\n  \"run_parity_failures\": %d\n"
       !divergences !run_failures);
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if !divergences > 0 || !run_failures > 0 then begin
    Printf.printf
      "FAIL: the daemon served bytes the single-process pipeline disagrees \
       with\n";
    exit 1
  end

(* -- WCET: static worst-case path bounds vs measured cycles ------------- *)

type wcet_row = {
  wc_workload : string;
  wc_engine : string;
  wc_measured : int;
  wc_bound : int;
  wc_accounted : int;
  wc_discount : int;
  wc_fallbacks : int;
  wc_infeasible : int;
  wc_truncated : int;
  wc_solve_secs : float;
}

(* For every workload x engine cell: measure the uninstrumented run's
   cycles, record flow facts with the trace tool, solve the IPET integer
   program, and demand bound >= measured.  The accounted column is the
   observed run's own per-block cycle total (what the bound degenerates
   to when the flow facts pin every path). *)
let wcet_bench ?(smoke = false) () =
  let workloads =
    if smoke then workloads_named [ "sieve"; "qsort"; "cells" ]
    else Workloads.all
  in
  let trace_tool =
    match Tools.Registry.find "trace" with
    | Some t -> t
    | None -> failwith "trace tool not registered"
  in
  let rows = ref [] in
  let violations = ref [] in
  Printf.printf "WCET: IPET static bound vs measured cycles per workload x engine\n";
  Printf.printf "%-10s %-5s %14s %14s %12s %8s\n" "workload" "eng" "measured"
    "bound" "gap" "gap-pm";
  hrule 70;
  List.iter
    (fun w ->
      let exe = Workloads.compile w in
      let cfg = Om.Cfg.build (Om.Build.program exe) in
      let exe', _ = Tools.Tool.apply trace_tool exe in
      List.iter
        (fun engine ->
          let id =
            w.Workloads.w_name ^ "/" ^ Machine.Sim.engine_name engine
          in
          let outcome, m = Workloads.run_exe ~engine exe in
          (match outcome with
          | Machine.Sim.Exit 0 -> ()
          | _ -> failwith (id ^ ": base run failed"));
          let measured = (Machine.Sim.stats m).Machine.Sim.st_cycles in
          let outcome', m' = Workloads.run_exe ~engine exe' in
          (match outcome' with
          | Machine.Sim.Exit 0 -> ()
          | _ -> failwith (id ^ ": trace-instrumented run failed"));
          let facts =
            match List.assoc_opt "trace.out" (Machine.Sim.output_files m') with
            | Some text -> Wcet.Facts.parse text
            | None -> failwith (id ^ ": trace run produced no trace.out")
          in
          let res, solve_secs =
            time_it (fun () -> Wcet.Ipet.analyze cfg facts)
          in
          let bound = res.Wcet.Ipet.bound in
          let gap = bound - measured in
          if bound < measured then violations := id :: !violations;
          Printf.printf "%-10s %-5s %14d %14d %12d %8d%s\n" w.Workloads.w_name
            (Machine.Sim.engine_name engine)
            measured bound gap
            (if measured > 0 then gap * 1000 / measured else 0)
            (if bound < measured then "  VIOLATION" else "");
          rows :=
            {
              wc_workload = w.Workloads.w_name;
              wc_engine = Machine.Sim.engine_name engine;
              wc_measured = measured;
              wc_bound = bound;
              wc_accounted = res.Wcet.Ipet.accounted;
              wc_discount = res.Wcet.Ipet.discount;
              wc_fallbacks = res.Wcet.Ipet.fallbacks;
              wc_infeasible = res.Wcet.Ipet.infeasible;
              wc_truncated = res.Wcet.Ipet.truncated;
              wc_solve_secs = solve_secs;
            }
            :: !rows)
        [ Machine.Sim.Ref; Machine.Sim.Fast ])
    workloads;
  hrule 70;
  let rows = List.rev !rows in
  let violations = List.rev !violations in
  let path = bench_path ~smoke "wcet" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n  \"rows\": [\n" smoke;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"workload\": \"%s\", \"engine\": \"%s\", \"measured\": %d, \
         \"bound\": %d, \"gap\": %d, \"accounted\": %d, \"discount\": %d, \
         \"fallbacks\": %d, \"infeasible\": %d, \"truncated\": %d, \
         \"solve_secs\": %.3f }%s\n"
        (json_escape r.wc_workload) (json_escape r.wc_engine) r.wc_measured
        r.wc_bound (r.wc_bound - r.wc_measured) r.wc_accounted r.wc_discount
        r.wc_fallbacks r.wc_infeasible r.wc_truncated r.wc_solve_secs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"violations\": [%s]\n}\n"
    (String.concat ", "
       (List.map (fun v -> "\"" ^ json_escape v ^ "\"") violations));
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if violations <> [] then begin
    Printf.printf "FAIL: static bound below measured cycles: %s\n"
      (String.concat ", " violations);
    exit 1
  end

let usage =
  "usage: main.exe [fig5 [--smoke]|fig6|ablations|verify|bechamel [--cold]|\
   quick|perf [--smoke] [--min-speedup X]|faults [--smoke]|serve [--smoke]|\
   wcet [--smoke]|\
   soak [--smoke] [--seed N] [--count N] [--size N] [--atomd] [--dump]|all]"

let usage_error () =
  prerr_endline usage;
  exit 2

(* What each verb takes after its name: flags that stand alone, and
   flags followed by a value.  Any other argument is a usage error, so a
   mistyped flag never runs a different benchmark than the one asked
   for. *)
let verb_flags = function
  | "fig5" | "faults" | "serve" | "wcet" -> ([ "--smoke" ], [])
  | "perf" -> ([ "--smoke" ], [ "--min-speedup" ])
  | "bechamel" -> ([ "--cold" ], [])
  | "soak" ->
      ([ "--smoke"; "--atomd"; "--dump" ], [ "--seed"; "--count"; "--size" ])
  | _ -> ([], [])

let () =
  let mode, rest =
    match Array.to_list Sys.argv with
    | _ :: mode :: rest -> (mode, rest)
    | _ -> ("all", [])
  in
  let switches, valued = verb_flags mode in
  let rec parse = function
    | [] -> []
    | f :: rest when List.mem f switches -> (f, "") :: parse rest
    | f :: v :: rest when List.mem f valued -> (f, v) :: parse rest
    | _ -> usage_error ()
  in
  let args = parse rest in
  let switch f = List.mem_assoc f args in
  (* a value must convert and pass [ok]; an absent flag is [None] *)
  let value f convert ok =
    Option.map
      (fun v -> match convert v with Some x when ok x -> x | _ -> usage_error ())
      (List.assoc_opt f args)
  in
  let smoke = switch "--smoke" in
  match mode with
  | "fig5" -> fig5 ~smoke ()
  | "fig6" -> fig6 ()
  | "ablations" | "ablate" ->
      ablate_wrapper ();
      ablate_saves ();
      ablate_liveness ();
      ablate_heap ()
  | "ablate-wrapper" -> ablate_wrapper ()
  | "ablate-saves" -> ablate_saves ()
  | "ablate-heap" -> ablate_heap ()
  | "ablate-liveness" -> ablate_liveness ()
  | "bechamel" -> bechamel ~cold:(switch "--cold") ()
  | "perf" ->
      perf ~smoke
        ?min_speedup:
          (value "--min-speedup" float_of_string_opt (fun x ->
               Float.is_finite x && x > 0.0))
        ()
  | "faults" -> faults ~smoke ()
  | "soak" ->
      let positive f = value f int_of_string_opt (fun n -> n > 0) in
      soak ~smoke
        ?seed:(value "--seed" int_of_string_opt (fun _ -> true))
        ?count:(positive "--count") ?size:(positive "--size")
        ~atomd:(switch "--atomd") ~dump:(switch "--dump") ()
  | "serve" -> serve_bench ~smoke ()
  | "wcet" -> wcet_bench ~smoke ()
  | "verify" -> verify_sweep ()
  | "quick" ->
      let tools = tools_named [ "inline"; "dyninst" ] in
      let workloads = workloads_named [ "cover"; "sieve"; "qsort" ] in
      fig6 ~tools ~workloads ();
      verify_sweep ~quick:true ()
  | "all" ->
      fig5 ();
      fig6 ();
      ablate_wrapper ();
      ablate_saves ();
      ablate_liveness ();
      ablate_heap ();
      bechamel ()
  | _ -> usage_error ()
