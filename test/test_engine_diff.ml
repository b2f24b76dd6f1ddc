(* Engine differential: every workload, uninstrumented and instrumented
   with each packaged tool, is run under both the reference interpreter
   and the closure-compiled fast engine.  The two must agree on the
   outcome, the complete statistics record (instructions, cycles,
   dual-issue pair cycles, loads, stores, conditional branches, taken
   branches, calls, syscalls), stdout, stderr, analysis output files and
   the final heap break. *)

let stat_fields =
  [
    ("insns", fun s -> s.Machine.Sim.st_insns);
    ("cycles", fun s -> s.Machine.Sim.st_cycles);
    ("pair_cycles", fun s -> s.Machine.Sim.st_pair_cycles);
    ("loads", fun s -> s.Machine.Sim.st_loads);
    ("stores", fun s -> s.Machine.Sim.st_stores);
    ("cond_branches", fun s -> s.Machine.Sim.st_cond_branches);
    ("taken", fun s -> s.Machine.Sim.st_taken);
    ("calls", fun s -> s.Machine.Sim.st_calls);
    ("syscalls", fun s -> s.Machine.Sim.st_syscalls);
  ]

let outcome_str = function
  | Machine.Sim.Exit n -> Printf.sprintf "exit %d" n
  | Machine.Sim.Fault f -> "fault " ^ Machine.Fault.to_string f
  | Machine.Sim.Out_of_fuel -> "out of fuel"

let check_stats label m_ref m_fast =
  let s_ref = Machine.Sim.stats m_ref and s_fast = Machine.Sim.stats m_fast in
  List.iter
    (fun (name, field) ->
      if field s_ref <> field s_fast then
        Alcotest.failf "%s: %s ref=%d fast=%d" label name (field s_ref)
          (field s_fast))
    stat_fields

let check_cell ?tag label exe =
  let label =
    match tag with None -> label | Some t -> label ^ " (" ^ t ^ ")"
  in
  let o_ref, m_ref = Workloads.run_exe ~engine:Machine.Sim.Ref exe in
  let o_fast, m_fast = Workloads.run_exe ~engine:Machine.Sim.Fast exe in
  if o_ref <> o_fast then
    Alcotest.failf "%s: outcome ref=%s fast=%s" label (outcome_str o_ref)
      (outcome_str o_fast);
  (match o_ref with
  | Machine.Sim.Exit 0 -> ()
  | o -> Alcotest.failf "%s: expected exit 0, got %s" label (outcome_str o));
  check_stats label m_ref m_fast;
  if Machine.Sim.stdout m_ref <> Machine.Sim.stdout m_fast then
    Alcotest.failf "%s: stdout differs" label;
  if Machine.Sim.stderr m_ref <> Machine.Sim.stderr m_fast then
    Alcotest.failf "%s: stderr differs" label;
  if Machine.Sim.output_files m_ref <> Machine.Sim.output_files m_fast then
    Alcotest.failf "%s: output files differ" label;
  if Machine.Sim.brk m_ref <> Machine.Sim.brk m_fast then
    Alcotest.failf "%s: final break ref=%#x fast=%#x" label
      (Machine.Sim.brk m_ref) (Machine.Sim.brk m_fast)

(* [check] every workload on two domains, each taking the next unchecked
   workload until none is left or a check fails.  Once both have
   stopped, the first failure, this domain's before the other's, fails
   the case with its own message and backtrace. *)
let on_two_domains check workloads =
  let todo = Array.of_list workloads in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length todo then begin
        check todo.(i);
        go ()
      end
    in
    match go () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let other = Domain.spawn worker in
  let here = worker () in
  let there = Domain.join other in
  match (here, there) with
  | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None, None -> ()

let test_uninstrumented () =
  on_two_domains
    (fun w ->
      check_cell w.Workloads.w_name (Workloads.compile w))
    Workloads.all

let test_tool tool () =
  on_two_domains
    (fun w ->
      let exe = Workloads.compile w in
      let exe', _ = Tools.Tool.apply tool exe in
      check_cell (tool.Tools.Tool.name ^ "/" ^ w.Workloads.w_name) exe')
    Workloads.all

(* -- specialized analysis-call stubs ------------------------------------- *)

let spec_options =
  {
    Atom.Instrument.default_options with
    Atom.Instrument.call_style = Atom.Instrument.Specialized;
  }

let spec_workloads =
  List.filter
    (fun w -> List.mem w.Workloads.w_name [ "compress"; "sieve"; "qsort" ])
    Workloads.all

let test_tool_specialized tool () =
  on_two_domains
    (fun w ->
      let exe = Workloads.compile w in
      let exe', _ = Tools.Tool.apply ~options:spec_options tool exe in
      check_cell ~tag:"specialized"
        (tool.Tools.Tool.name ^ "/" ^ w.Workloads.w_name)
        exe')
    spec_workloads

(* -- translation on first entry -------------------------------------------- *)

(* The fast engine translates a block the first time control enters it.
   These hand-assembled programs aim at the edges of that: code that never
   runs, a computed jump into a block never entered, fuel running out as a
   block is first entered, and a trace hook installed on a machine whose
   code is only partly translated.  Every case runs on both engines. *)

let assemble src =
  Linker.Link.link [ Linker.Link.Unit (Asmlib.Assemble.assemble ~name:"l.s" src) ]

(* outcome, statistics, PC, every register and stdout must agree *)
let agree label (o_ref, m_ref) (o_fast, m_fast) =
  if o_ref <> o_fast then
    Alcotest.failf "%s: outcome ref=%s fast=%s" label (outcome_str o_ref)
      (outcome_str o_fast);
  check_stats label m_ref m_fast;
  if Machine.Sim.pc m_ref <> Machine.Sim.pc m_fast then
    Alcotest.failf "%s: pc ref=%#x fast=%#x" label (Machine.Sim.pc m_ref)
      (Machine.Sim.pc m_fast);
  for r = 0 to 31 do
    if Machine.Sim.reg m_ref r <> Machine.Sim.reg m_fast r then
      Alcotest.failf "%s: $%d ref=%Ld fast=%Ld" label r (Machine.Sim.reg m_ref r)
        (Machine.Sim.reg m_fast r);
    if Machine.Sim.freg_bits m_ref r <> Machine.Sim.freg_bits m_fast r then
      Alcotest.failf "%s: $f%d differs" label r
  done;
  if Machine.Sim.stdout m_ref <> Machine.Sim.stdout m_fast then
    Alcotest.failf "%s: stdout differs" label

let run_both exe =
  let im = Machine.Sim.prepare exe in
  let run engine =
    let m = Machine.Sim.start ~engine im in
    (Machine.Sim.run ~max_insns:100_000 m, m)
  in
  let r = run Machine.Sim.Ref and f = run Machine.Sim.Fast in
  agree "run" r f;
  snd f

(* a short loop, then exit; after it a procedure of [size] two-instruction
   blocks that nothing calls *)
let dead_proc_program size =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    {|
        .text
        .globl __start
__start:
        ldiq $9, 0
        ldiq $10, 20
loop:   addq $9, $10, $9
        subq $10, 1, $10
        bne $10, loop
        clr $16
        ldiq $0, 1
        call_pal 0x83
unused:
|};
  for i = 1 to size do
    Printf.bprintf b "        addq $9, %d, $9\n        beq $9, unused\n"
      (i land 255)
  done;
  Buffer.add_string b "        ret $31, ($26)\n";
  assemble (Buffer.contents b)

let test_dead_code () =
  let small = run_both (dead_proc_program 10)
  and large = run_both (dead_proc_program 2000) in
  let built_s, leaders_s = Machine.Sim.blocks_translated small
  and built_l, leaders_l = Machine.Sim.blocks_translated large in
  Alcotest.(check bool) "the large procedure has more leaders" true
    (leaders_l > leaders_s + 1000);
  Alcotest.(check bool) "some blocks were built" true (built_s > 0);
  Alcotest.(check int) "blocks built do not depend on dead code" built_s
    built_l

(* [jmp] lands in the middle of a block whose leader never runs;
   reference steps run up to the next control transfer, whose target is
   a turbo block again *)
let test_jump_mid_block () =
  let m =
    run_both
      (assemble
         {|
        .text
        .globl __start
__start:
        lda $1, mid
        jmp $31, ($1)
        addq $31, 7, $2
        addq $2, 1, $2
mid:    addq $31, 40, $3
        addq $3, 2, $3
        stq $3, -8($30)
        ldq $4, -8($30)
        ldiq $5, 3
again:  subq $5, 1, $5
        addq $4, $5, $4
        bne $5, again
        clr $16
        ldiq $0, 1
        call_pal 0x83
|})
  in
  Alcotest.(check int64) "skipped half never ran" 0L (Machine.Sim.reg m 2);
  Alcotest.(check int64) "landing half ran" 45L (Machine.Sim.reg m 4)

(* calls merged into a chain, loads and stores that can unwind a batch,
   a syscall terminator and a loop: every block is entered for the first
   time at some point of the run *)
let sweep_program =
  {|
        .data
buf:    .quad 0
        .text
        .globl __start
__start:
        ldiq $9, 0
        ldiq $10, 4
loop:   bsr $26, bump
        ldiq $16, 1
        lda $17, buf
        ldiq $18, 1
        ldiq $0, 4
        call_pal 0x83
        subq $10, 1, $10
        bne $10, loop
        clr $16
        ldiq $0, 1
        call_pal 0x83
bump:   lda $1, buf
        ldq $3, 0($1)
        addq $3, 33, $3
        stq $3, 0($1)
        addq $9, $3, $9
        ret $31, ($26)
|}

(* the run's length in instructions, from the reference engine *)
let insns_to_exit im =
  let m = Machine.Sim.start ~engine:Machine.Sim.Ref im in
  (match Machine.Sim.run m with
  | Machine.Sim.Exit 0 -> ()
  | o -> Alcotest.failf "sweep program: %s" (outcome_str o));
  (Machine.Sim.stats m).Machine.Sim.st_insns

let test_fuel_first_entry () =
  let im = Machine.Sim.prepare (assemble sweep_program) in
  let total = insns_to_exit im in
  for budget = 0 to total do
    let label = Printf.sprintf "budget %d" budget in
    let start engine = Machine.Sim.start ~engine im in
    let m_ref = start Machine.Sim.Ref and m_fast = start Machine.Sim.Fast in
    let run m = (Machine.Sim.run ~max_insns:budget m, m) in
    let r = run m_ref in
    let f = run m_fast in
    agree label r f;
    let resume m = (Machine.Sim.run m, m) in
    let r = resume m_ref in
    let f = resume m_fast in
    agree (label ^ ", resumed") r f;
    if fst f <> Machine.Sim.Exit 0 then
      Alcotest.failf "%s: resumed run did not exit 0" label
  done

let test_trace_after_partial_run () =
  let im = Machine.Sim.prepare (assemble sweep_program) in
  let total = insns_to_exit im in
  for budget = 0 to total do
    let label = Printf.sprintf "traced after %d" budget in
    let run engine =
      let m = Machine.Sim.start ~engine im in
      ignore (Machine.Sim.run ~max_insns:budget m);
      let seen = ref [] in
      Machine.Sim.set_trace m (fun pc insn -> seen := (pc, insn) :: !seen);
      let o = Machine.Sim.run m in
      ((o, m), !seen)
    in
    let r, seen_ref = run Machine.Sim.Ref in
    let f, seen_fast = run Machine.Sim.Fast in
    agree label r f;
    if seen_ref <> seen_fast then
      Alcotest.failf "%s: trace streams differ (ref %d steps, fast %d)" label
        (List.length seen_ref) (List.length seen_fast);
    if budget = total / 2 then begin
      let built, leaders = Machine.Sim.blocks_translated (snd f) in
      if not (built > 0 && built < leaders) then
        Alcotest.failf "%s: expected a partly translated machine (%d/%d)"
          label built leaders
    end
  done

(* -- page TLB -------------------------------------------------------------- *)

(* The fast engine's loads and stores look pages up in direct-mapped
   TLBs of [Exec.tlb_size] entries.  Pages A and B sit that many pages
   apart, so they share a slot and evict each other on every access of
   the loop; C has a slot of its own.  Then every width is stored and
   loaded back at page offsets 4089-4095, where the wider accesses split
   across a page boundary.  Last, a text page is loaded (cached as
   readable) and stored to, which must fault at the store. *)
let tlb_program =
  let b = Buffer.create 8192 in
  Printf.bprintf b
    {|
        .text
        .globl __start
__start:
        ldiq $1, 4096
        subq $30, $1, $2
        ldiq $1, %d
        subq $2, $1, $3
        ldiq $1, 4096
        subq $2, $1, $4
        ldiq $9, 6
        clr $10
loop:   stq $9, 0($2)
        addq $9, 100, $11
        stq $11, 0($3)
        ldq $12, 0($2)
        stq $12, 8($4)
        ldq $13, 0($3)
        ldq $14, 8($4)
        stl $13, 16($2)
        ldl $15, 16($2)
        ldbu $22, 0($3)
        s4addq $10, $12, $10
        addq $10, $13, $10
        xor $10, $14, $10
        addq $10, $15, $10
        addq $10, $22, $10
        subq $9, 1, $9
        bne $9, loop
        ldiq $1, -4096
        and $2, $1, $5
        ldiq $6, 0x5a3c1f7
        sll $6, 29, $7
        xor $6, $7, $6
        stq $6, 0($4)
        ldt $f1, 0($4)
|}
    (Machine.Exec.tlb_size * Machine.Mem.page_size);
  for off = 4089 to 4095 do
    List.iter
      (fun (st, ld) ->
        Printf.bprintf b
          "        %s $6, %d($5)\n        %s $22, %d($5)\n        addq $10, $22, $10\n"
          st off ld off)
      [ ("stb", "ldbu"); ("stw", "ldwu"); ("stl", "ldl"); ("stq", "ldq");
        ("stq_u", "ldq_u") ];
    Printf.bprintf b
      "        stt $f1, %d($5)\n        ldt $f2, %d($5)\n        stt $f2, 24($4)\n\
      \        ldq $22, 24($4)\n        xor $10, $22, $10\n        addq $6, 3, $6\n"
      off off
  done;
  Buffer.add_string b
    {|
        ldq_u $22, 4088($5)
        xor $10, $22, $10
        ldq_u $22, 4096($5)
        xor $10, $22, $10
        lda $20, __start
        ldq $21, 0($20)
        addq $10, $21, $10
        stq $21, 0($20)
        clr $16
        ldiq $0, 1
        call_pal 0x83
|};
  Buffer.contents b

let test_tlb () =
  let im = Machine.Sim.prepare (assemble tlb_program) in
  let run engine =
    let m = Machine.Sim.start ~engine im in
    (Machine.Sim.run m, m)
  in
  let ((o_ref, m_ref) as r) = run Machine.Sim.Ref in
  agree "tlb" r (run Machine.Sim.Fast);
  if Machine.Sim.reg m_ref 21 = 0L then
    Alcotest.fail "tlb: the text load read nothing";
  match o_ref with
  | Machine.Sim.Fault (Machine.Fault.Segv { addr; access = Store; pc }) ->
      Alcotest.(check int) "the store faults on the text word it loaded"
        (Int64.to_int (Machine.Sim.reg m_ref 20))
        addr;
      Alcotest.(check int) "the PC stays at the store" pc (Machine.Sim.pc m_ref)
  | o -> Alcotest.failf "tlb: expected a store fault, got %s" (outcome_str o)

(* -- allocation-free execution --------------------------------------------- *)

(* The fast engine allocates nothing on the OCaml heap per instruction it
   executes (outside system calls, faults, page-straddling accesses and
   operates the compiler never emits), and no closure per code word when
   it installs its stubs.
   [Gc.minor_words] counts the words allocated so far; under OCaml 5
   [Gc.quick_stat]'s counter only moves at a collection. *)

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Words per instruction of a warm run: the difference between a long
   and a short run, on fresh machines started from one prepared image,
   cancels what starting and translating cost. *)
let test_alloc_per_insn name () =
  let im =
    Machine.Sim.prepare (Workloads.compile (Option.get (Workloads.find name)))
  in
  let run budget =
    let m = Machine.Sim.start ~engine:Machine.Sim.Fast im in
    let o, words = minor_words (fun () -> Machine.Sim.run ~max_insns:budget m) in
    if o <> Machine.Sim.Out_of_fuel then
      Alcotest.failf "%s: %s before %d instructions" name (outcome_str o) budget;
    ((Machine.Sim.stats m).Machine.Sim.st_insns, words)
  in
  let i0, w0 = run 200_000 in
  let i1, w1 = run 2_000_000 in
  let per_insn = (w1 -. w0) /. float_of_int (i1 - i0) in
  if per_insn >= 0.05 then
    Alcotest.failf "%s: %.3f minor words per instruction (limit 0.05)" name
      per_insn

(* qsort instrumented with the trace tool (11 446 code words), and its
   number of code words *)
let qsort_trace () =
  let exe = Workloads.compile (Option.get (Workloads.find "qsort")) in
  let exe, _ = Tools.Tool.apply (Option.get (Tools.Registry.find "trace")) exe in
  let words =
    List.fold_left
      (fun acc seg ->
        if seg.Objfile.Exe.seg_vaddr < exe.Objfile.Exe.x_data_start then
          acc + (Bytes.length seg.Objfile.Exe.seg_bytes / 4)
        else acc)
      0 exe.Objfile.Exe.x_segs
  in
  (exe, words)

(* Installing the stubs: one instruction of a run of qsort instrumented
   with the trace tool, whose first entry installs a stub in every slot
   of every code segment.  This pins "no closure per code word": a
   segment's slot array, once longer than 256 words, is allocated in the
   major heap, which [Gc.minor_words] does not count. *)
let test_alloc_per_word () =
  let exe, words = qsort_trace () in
  let m = Machine.Sim.start ~engine:Machine.Sim.Fast (Machine.Sim.prepare exe) in
  let o, allocated = minor_words (fun () -> Machine.Sim.run ~max_insns:1 m) in
  if o <> Machine.Sim.Out_of_fuel then
    Alcotest.failf "qsort/trace: %s after one instruction" (outcome_str o);
  let per_word = allocated /. float_of_int words in
  if per_word >= 1.0 then
    Alcotest.failf
      "qsort/trace: %.2f minor words per code word over %d words (limit 1)"
      per_word words

(* What preparing keeps: the words [Sim.prepare] leaves in the major heap,
   counted as [Gc.counters] major words (which include promotions) around
   it, each side after a minor collection.  An image that kept a decoded
   instruction per code word would hold about 8 words per code word. *)
let test_prepare_keeps () =
  let exe, words = qsort_trace () in
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let im = Machine.Sim.prepare exe in
  Gc.minor ();
  let _, _, major1 = Gc.counters () in
  ignore (Sys.opaque_identity im);
  let per_word = (major1 -. major0) /. float_of_int words in
  if per_word >= 4.0 then
    Alcotest.failf
      "qsort/trace: prepare keeps %.2f major words per code word over %d \
       words (limit 4)"
      per_word words

(* -- one prepared image, two domains --------------------------------------- *)

(* An image decodes each instruction the first time a run needs it, so
   machines started from one image in several domains at once race to
   decode the same words.  Two domains run the same kind of run on a
   freshly prepared image of qsort under trace at the same time; each
   must see exactly what the run alone sees on an image of its own: the
   same outcome, statistics, stdout and, for the traced run, trace
   stream. *)

let shared_budget = 3_000_000

let run_shared (engine, traced) im =
  let m = Machine.Sim.start ~engine im in
  let stream = ref 0 in
  if traced then
    Machine.Sim.set_trace m (fun pc insn ->
        stream := Hashtbl.hash (!stream, pc, Hashtbl.hash insn));
  let o = Machine.Sim.run ~max_insns:shared_budget m in
  (o, Machine.Sim.stats m, Machine.Sim.stdout m, !stream)

let test_shared_image mode () =
  let exe, _ = qsort_trace () in
  let alone = run_shared mode (Machine.Sim.prepare exe) in
  let im = Machine.Sim.prepare exe in
  let other = Domain.spawn (fun () -> run_shared mode im) in
  let here = run_shared mode im in
  let there = Domain.join other in
  List.iter
    (fun (side, (o, st, out, stream)) ->
      let o', st', out', stream' = alone in
      if o <> o' then
        Alcotest.failf "%s: outcome %s, alone %s" side (outcome_str o)
          (outcome_str o');
      if st <> st' then Alcotest.failf "%s: statistics differ" side;
      if out <> out' then Alcotest.failf "%s: stdout differs" side;
      if stream <> stream' then Alcotest.failf "%s: trace stream differs" side)
    [ ("spawned domain", there); ("main domain", here) ]

let () =
  Alcotest.run "engine-diff"
    [
      ( "uninstrumented",
        [ Alcotest.test_case "all workloads" `Quick test_uninstrumented ] );
      ( "instrumented",
        List.map
          (fun tool ->
            Alcotest.test_case tool.Tools.Tool.name `Slow (test_tool tool))
          Tools.Registry.all );
      ( "specialized stubs",
        List.map
          (fun tool ->
            Alcotest.test_case tool.Tools.Tool.name `Slow
              (test_tool_specialized tool))
          Tools.Registry.all );
      ( "first-entry translation",
        [
          Alcotest.test_case "dead code is never translated" `Quick
            test_dead_code;
          Alcotest.test_case "computed jump into an unentered block" `Quick
            test_jump_mid_block;
          Alcotest.test_case "fuel out on first entry, then resume" `Quick
            test_fuel_first_entry;
          Alcotest.test_case "trace hook on a partly translated machine"
            `Quick test_trace_after_partial_run;
        ] );
      ( "page TLB",
        [ Alcotest.test_case "slot conflicts, page splits, text store" `Quick
            test_tlb ] );
      ( "allocation",
        [
          Alcotest.test_case "compress: none per instruction" `Quick
            (test_alloc_per_insn "compress");
          Alcotest.test_case "nbody: none per instruction" `Quick
            (test_alloc_per_insn "nbody");
          Alcotest.test_case "qsort/trace: none per installed code word" `Quick
            test_alloc_per_word;
          Alcotest.test_case "qsort/trace: prepare keeps under 4 words per code word"
            `Quick test_prepare_keeps;
        ] );
      ( "shared image",
        [
          Alcotest.test_case "two domains, fast" `Quick
            (test_shared_image (Machine.Sim.Fast, false));
          Alcotest.test_case "two domains, ref" `Quick
            (test_shared_image (Machine.Sim.Ref, false));
          Alcotest.test_case "two domains, traced" `Quick
            (test_shared_image (Machine.Sim.Fast, true));
        ] );
    ]
