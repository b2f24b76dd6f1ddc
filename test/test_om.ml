(* OM: IR construction invariants, dataflow summaries, and codegen —
   including the crucial identity: regenerating a program with no
   instrumentation must reproduce its text byte for byte. *)

let sample_exe =
  lazy
    (Rtlib.compile_and_link ~name:"om_sample.o"
       {|
long helper(long x) { return x * 3 + 1; }
long main(void) {
  long i, acc = 0;
  for (i = 0; i < 50; i++) {
    if (i & 1) acc += helper(i);
    else acc -= i;
  }
  printf("acc=%d\n", acc);
  return 0;
}
|})

let program () = Om.Build.program (Lazy.force sample_exe)

let test_procs_cover_text () =
  let exe = Lazy.force sample_exe in
  let prog = program () in
  let cursor = ref exe.Objfile.Exe.x_text_start in
  Array.iter
    (fun p ->
      Alcotest.(check int) (p.Om.Ir.p_name ^ " starts at cursor") !cursor p.Om.Ir.p_addr;
      cursor := !cursor + p.Om.Ir.p_size)
    prog.Om.Ir.procs;
  Alcotest.(check int) "procs cover all text"
    (exe.Objfile.Exe.x_text_start + exe.Objfile.Exe.x_text_size)
    !cursor

let test_blocks_partition_procs () =
  let prog = program () in
  Array.iter
    (fun p ->
      let cursor = ref p.Om.Ir.p_addr in
      Array.iter
        (fun b ->
          Alcotest.(check int) "block starts at cursor" !cursor b.Om.Ir.b_addr;
          Alcotest.(check bool) "block non-empty" true (Array.length b.Om.Ir.b_insts > 0);
          (* only the last instruction may be a terminator *)
          Array.iteri
            (fun i inst ->
              if i < Array.length b.Om.Ir.b_insts - 1 then
                Alcotest.(check bool) "no terminator mid-block" false
                  (Alpha.Insn.is_terminator inst.Om.Ir.i_insn))
            b.Om.Ir.b_insts;
          cursor := !cursor + (4 * Array.length b.Om.Ir.b_insts))
        p.Om.Ir.p_blocks;
      Alcotest.(check int) (p.Om.Ir.p_name ^ " blocks cover proc")
        (p.Om.Ir.p_addr + p.Om.Ir.p_size)
        !cursor)
    prog.Om.Ir.procs

let test_succs_are_leaders () =
  let prog = program () in
  Array.iter
    (fun p ->
      let leaders =
        Array.to_list p.Om.Ir.p_blocks |> List.map (fun b -> b.Om.Ir.b_addr)
      in
      Array.iter
        (fun b ->
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "succ %#x of block %#x is a leader" s b.Om.Ir.b_addr)
                true (List.mem s leaders))
            b.Om.Ir.b_succs)
        p.Om.Ir.p_blocks)
    prog.Om.Ir.procs

let test_find_procs () =
  let prog = program () in
  Alcotest.(check bool) "main found" true (Om.Ir.find_proc prog "main" <> None);
  Alcotest.(check bool) "helper found" true (Om.Ir.find_proc prog "helper" <> None);
  match Om.Ir.find_proc prog "main" with
  | Some p ->
      Alcotest.(check bool) "proc_at inside main" true
        (Om.Ir.proc_at prog (p.Om.Ir.p_addr + 8) == Some p
        ||
        match Om.Ir.proc_at prog (p.Om.Ir.p_addr + 8) with
        | Some q -> q.Om.Ir.p_name = "main"
        | None -> false)
  | None -> assert false

let test_dataflow () =
  let prog = program () in
  let df = Om.Dataflow.compute prog in
  (* a leaf procedure's summary is its own defs; it must include the
     temporaries the compiler uses but never callee-saves *)
  let helper = Om.Dataflow.modified_by df "helper" in
  Alcotest.(check bool) "helper clobbers t0" true (Alpha.Regset.mem 1 helper);
  Alcotest.(check bool) "helper preserves s0" false (Alpha.Regset.mem 9 helper);
  Alcotest.(check bool) "no sp in any summary" false (Alpha.Regset.mem Alpha.Reg.sp helper);
  (* main calls printf (which makes system calls) -> bigger summary *)
  let main = Om.Dataflow.modified_by df "main" in
  Alcotest.(check bool) "helper summary within main's" true
    (Alpha.Regset.subset helper main);
  (* unknown procedures are treated as clobber-everything *)
  Alcotest.(check bool) "unknown = all caller saves" true
    (Alpha.Regset.equal (Om.Dataflow.modified_by df "nosuch") Om.Dataflow.all_caller_saves)

(* -- modified_by soundness ------------------------------------------------- *)

(* [Dataflow.modified_by] drives the specialized call stubs: a register
   the summary excludes gets no save slot, so an under-approximation
   would corrupt live state.  Check it dynamically: trace one run,
   snapshot the register file at every call to a known procedure, diff
   it at the matching return, and require every observed caller-save
   modification to lie inside the procedure's summary.  $ra is excluded
   — the call instruction itself writes it before the callee runs. *)
let observed_modifications exe =
  let prog = Om.Build.program exe in
  let entries = Hashtbl.create 64 in
  Array.iter
    (fun p -> Hashtbl.replace entries p.Om.Ir.p_addr p.Om.Ir.p_name)
    prog.Om.Ir.procs;
  let m = Machine.Sim.load ~engine:Machine.Sim.Ref exe in
  let observed = Hashtbl.create 64 in
  let stack = ref [] in
  let snap () =
    ( Array.init 31 (fun r -> Machine.Sim.reg m r),
      Array.init 31 (fun r -> Machine.Sim.freg_bits m r) )
  in
  Machine.Sim.set_trace m (fun pc insn ->
      (match !stack with
      | (name, ret_pc, (regs, fregs)) :: rest when pc = ret_pc ->
          stack := rest;
          let changed = ref Alpha.Regset.empty in
          for r = 0 to 30 do
            if r <> Alpha.Reg.ra && Machine.Sim.reg m r <> regs.(r) then
              changed := Alpha.Regset.add r !changed;
            if Machine.Sim.freg_bits m r <> fregs.(r) then
              changed := Alpha.Regset.add_f r !changed
          done;
          let cur =
            match Hashtbl.find_opt observed name with
            | Some s -> s
            | None -> Alpha.Regset.empty
          in
          Hashtbl.replace observed name (Alpha.Regset.union cur !changed)
      | _ -> ());
      let target =
        match insn with
        | Alpha.Insn.Br { link = true; disp; _ } -> Some (pc + 4 + (4 * disp))
        | Alpha.Insn.Jump { kind = Alpha.Insn.Jsr; rb; _ } ->
            Some (Int64.to_int (Machine.Sim.reg m rb) land lnot 3)
        | _ -> None
      in
      match target with
      | Some tgt -> (
          match Hashtbl.find_opt entries tgt with
          | Some name -> stack := (name, pc + 4, snap ()) :: !stack
          | None -> ())
      | None -> ());
  ignore (Machine.Sim.run ~max_insns:50_000_000 m);
  (prog, observed)

let check_modified_by what exe =
  let prog, observed = observed_modifications exe in
  let df = Om.Dataflow.compute prog in
  Hashtbl.iter
    (fun name changed ->
      let caller_save_changes =
        Alpha.Regset.inter changed Om.Dataflow.all_caller_saves
      in
      let summary = Om.Dataflow.modified_by df name in
      if not (Alpha.Regset.subset caller_save_changes summary) then
        Alcotest.failf
          "%s: %s observed modifying %s outside its summary %s" what name
          (Format.asprintf "%a" Alpha.Regset.pp
             (Alpha.Regset.diff caller_save_changes summary))
          (Format.asprintf "%a" Alpha.Regset.pp summary))
    observed;
  Alcotest.(check bool)
    (what ^ ": at least one call observed")
    true
    (Hashtbl.length observed > 0)

let test_modified_by_workloads () =
  List.iter
    (fun w -> check_modified_by w.Workloads.w_name (Workloads.compile w))
    (List.filter
       (fun w -> List.mem w.Workloads.w_name [ "compress"; "sieve"; "qsort" ])
       Workloads.all)

let prop_modified_by =
  QCheck.Test.make ~count:10
    ~name:"modified_by over-approximates observed modification (progen)"
    QCheck.small_nat
    (fun seed ->
      List.iter
        (fun w -> check_modified_by w.Workloads.w_name (Workloads.compile w))
        (Workloads.generated ~seed:(7000 + seed) ~count:1 ());
      true)

let test_codegen_identity () =
  let exe = Lazy.force sample_exe in
  let prog = program () in
  let r = Om.Codegen.generate prog in
  Alcotest.(check bool) "text reproduced byte for byte" true
    (Bytes.equal r.Om.Codegen.r_text (Objfile.Exe.text_bytes exe));
  Alcotest.(check int) "identity map start" exe.Objfile.Exe.x_text_start
    (r.Om.Codegen.r_map exe.Objfile.Exe.x_text_start)

let run exe =
  let m = Machine.Sim.load exe in
  match Machine.Sim.run ~max_insns:50_000_000 m with
  | Machine.Sim.Exit 0 -> m
  | Machine.Sim.Exit n -> Alcotest.failf "exit %d" n
  | Machine.Sim.Fault f -> Alcotest.failf "fault %s" (Machine.Fault.to_string f)
  | Machine.Sim.Out_of_fuel -> Alcotest.fail "fuel"

let nop_stub = Om.Codegen.stub_of_insns [ Alpha.Insn.nop ]

(* a request table: [stub] at [place] for every instruction [pick]s *)
let table_where prog pick =
  let requests = ref [] in
  Om.Ir.iter_insts prog (fun _ _ i ->
      List.iter
        (fun (place, stub) -> requests := (i.Om.Ir.i_pc, place, stub) :: !requests)
        (pick i));
  Om.Codegen.table (List.rev !requests)

(* [exe] with its text regenerated from [prog] and [stubs] *)
let regenerate exe prog stubs =
  let r = Om.Codegen.generate ~stubs prog in
  {
    exe with
    Objfile.Exe.x_entry = r.Om.Codegen.r_map exe.Objfile.Exe.x_entry;
    x_segs =
      List.map
        (fun seg ->
          if seg.Objfile.Exe.seg_vaddr = exe.Objfile.Exe.x_text_start then
            { seg with Objfile.Exe.seg_bytes = r.Om.Codegen.r_text }
          else seg)
        exe.Objfile.Exe.x_segs;
    x_text_size = Bytes.length r.Om.Codegen.r_text;
  }

let test_nop_padding () =
  (* inserting a nop before and after every instruction must leave the
     program's behaviour intact while tripling instruction counts *)
  let exe = Lazy.force sample_exe in
  let base = run exe in
  let prog = program () in
  let stubs =
    table_where prog (fun i ->
        (Om.Codegen.Before, nop_stub)
        ::
        (if Alpha.Insn.falls_through i.Om.Ir.i_insn then
           [ (Om.Codegen.After, nop_stub) ]
         else []))
  in
  let m = run (regenerate exe prog stubs) in
  Alcotest.(check string) "output identical" (Machine.Sim.stdout base)
    (Machine.Sim.stdout m);
  let i0 = (Machine.Sim.stats base).Machine.Sim.st_insns in
  let i1 = (Machine.Sim.stats m).Machine.Sim.st_insns in
  Alcotest.(check bool)
    (Printf.sprintf "instruction count grows (%d -> %d)" i0 i1)
    true
    (i1 > 2 * i0 && i1 <= 3 * i0 + 10)

(* [lda $1, mid] materialises a text address with an ldah/lda pair,
   which the linker records as hi/lo code refs.  A nop before every
   instruction, or only before the jump, moves [mid]; unless codegen
   rewrites both halves, the jump lands at mid's old address and the
   program does not exit 0. *)
let test_text_address_retargeted () =
  let exe =
    Linker.Link.link
      [
        Linker.Link.Unit
          (Asmlib.Assemble.assemble ~name:"om_text_address.s"
             {|
        .text
        .globl __start
__start:
        lda $1, mid
        jmp $31, ($1)
        ldiq $16, 1
        ldiq $0, 1
        call_pal 0x83
mid:    clr $16
        ldiq $0, 1
        call_pal 0x83
|});
      ]
  in
  List.iter
    (fun pad ->
      let prog = Om.Build.program exe in
      let stubs =
        table_where prog (fun i ->
            if pad i.Om.Ir.i_insn then [ (Om.Codegen.Before, nop_stub) ] else [])
      in
      ignore (run (regenerate exe prog stubs)))
    [ (fun _ -> true); (function Alpha.Insn.Jump _ -> true | _ -> false) ]

let test_sizeof_matches_generate () =
  let prog = program () in
  let stub = Om.Codegen.stub_of_insns [ Alpha.Insn.nop; Alpha.Insn.nop ] in
  let stubs =
    table_where prog (fun i ->
        if i.Om.Ir.i_pc land 8 = 0 then [ (Om.Codegen.Before, stub) ] else [])
  in
  let size = Om.Codegen.sizeof ~stubs prog in
  let r = Om.Codegen.generate ~stubs prog in
  Alcotest.(check int) "sizeof = generated bytes" size (Bytes.length r.Om.Codegen.r_text)

(* a table pc between two instructions, or past the text, names no
   instruction: codegen must refuse it rather than drop its stubs *)
let test_table_pc_not_an_instruction () =
  let exe = Lazy.force sample_exe in
  let prog = program () in
  let text = exe.Objfile.Exe.x_text_start in
  List.iter
    (fun pc ->
      let stubs = Om.Codegen.table [ (pc, Om.Codegen.Before, nop_stub) ] in
      match Om.Codegen.generate ~stubs prog with
      | _ -> Alcotest.failf "stub table pc %#x was accepted" pc
      | exception Failure _ -> ())
    [ text + 2; text + exe.Objfile.Exe.x_text_size; text - 4 ]

(* -- liveness -------------------------------------------------------------- *)

let test_liveness_basic () =
  ignore (Lazy.force sample_exe);
  let prog = program () in
  let tbl = Om.Liveness.compute prog in
  (* at the entry of `helper', its argument register must be live and a
     random callee-save the compiler never touches must be live only if
     used below; $a1 is not a parameter of helper -> dead *)
  (match Om.Ir.find_proc prog "helper" with
  | Some p ->
      let live = Om.Liveness.live_before tbl p.Om.Ir.p_addr in
      Alcotest.(check bool) "a0 live at helper entry" true (Alpha.Regset.mem 16 live);
      Alcotest.(check bool) "ra live at helper entry (leaf returns through it)" true
        (Alpha.Regset.mem Alpha.Reg.ra live);
      (* some scratch register must be provably dead; $at and the high
         temporaries are only ever defined-before-use *)
      Alcotest.(check bool) "a scratch register is dead at helper entry" true
        (List.exists (fun r -> not (Alpha.Regset.mem r live)) [ 22; 23; 24; 25; 28 ])
  | None -> Alcotest.fail "no helper");
  (* unknown addresses are fully conservative *)
  Alcotest.(check bool) "unknown pc -> all live" true
    (Alpha.Regset.equal (Om.Liveness.live_before tbl 4) Om.Liveness.all_regs)

(* an After stub sees the next instruction's live-before set when both
   lie in one procedure (located independently here), and every register
   after a procedure's last instruction *)
let test_live_after () =
  let prog = program () in
  let tbl = Om.Liveness.compute prog in
  let boundaries = ref 0 in
  Om.Ir.iter_insts prog (fun _ _ i ->
      let pc = i.Om.Ir.i_pc in
      let expected =
        match (Om.Ir.proc_at prog pc, Om.Ir.proc_at prog (pc + 4)) with
        | Some p, Some q when p == q -> Om.Liveness.live_before tbl (pc + 4)
        | _ ->
            incr boundaries;
            Om.Liveness.all_regs
      in
      if not (Alpha.Regset.equal expected (Om.Liveness.live_after prog tbl pc))
      then Alcotest.failf "wrong live-after set at %#x" pc);
  Alcotest.(check int) "one boundary per procedure"
    (Array.length prog.Om.Ir.procs) !boundaries

(* the hand-written divide helper returns its remainder in $3 outside the
   calling standard; interprocedural return-liveness must see it *)
let test_liveness_divqu_remainder () =
  let exe =
    Rtlib.compile_and_link ~name:"divlive.o"
      {| long main(void) { printf("%d %d
", 97 / 7, 97 % 7); return 0; } |}
  in
  let prog = Om.Build.program exe in
  let tbl = Om.Liveness.compute prog in
  match Om.Ir.find_proc prog "__divqu" with
  | None -> Alcotest.fail "no __divqu"
  | Some p ->
      (* find its ret and check $3 is live right before it *)
      let found = ref false in
      Array.iter
        (fun b ->
          Array.iter
            (fun i ->
              if Alpha.Insn.is_return i.Om.Ir.i_insn then begin
                found := true;
                let live = Om.Liveness.live_before tbl i.Om.Ir.i_pc in
                Alcotest.(check bool) "$3 live at __divqu ret" true
                  (Alpha.Regset.mem 3 live)
              end)
            b.Om.Ir.b_insts)
        p.Om.Ir.p_blocks;
      Alcotest.(check bool) "__divqu has a ret" true !found

(* the binary-search builder must reproduce the reference builder's
   output structurally, on real programs and on arbitrary ones *)
let test_fast_builder_matches_ref () =
  let exe = Lazy.force sample_exe in
  let fast = Om.Build.program exe in
  let reference = Oracle.program_ref exe in
  Alcotest.(check bool) "fast builder = reference builder" true
    (fast.Om.Ir.procs = reference.Om.Ir.procs)

let gen_synthetic_exe =
  QCheck.Gen.(
    int_range 4 64 >>= fun nwords ->
    list_size (return nwords)
      (int_bound 0xFFFFFFF >|= fun n -> n * 2654435761 land 0xFFFFFFFF)
    >>= fun words ->
    list_size (int_bound 4) (int_bound (nwords - 1)) >|= fun starts ->
    let base = Objfile.Exe.text_base in
    let bytes = Bytes.create (4 * nwords) in
    List.iteri (fun i w -> Alpha.Code.write_word bytes (4 * i) w) words;
    let starts = List.sort_uniq compare (0 :: starts) in
    let syms =
      List.map
        (fun i ->
          {
            Objfile.Exe.x_name = Printf.sprintf "f%d" i;
            x_addr = base + (4 * i);
            x_type = Objfile.Types.Func;
            x_size = 0;
          })
        starts
    in
    {
      Objfile.Exe.x_entry = base;
      x_segs =
        [ { Objfile.Exe.seg_vaddr = base; seg_bytes = bytes; seg_bss = 0;
            seg_write = false } ];
      x_symbols = syms;
      x_text_start = base;
      x_text_size = 4 * nwords;
      x_data_start = base + 0x100000;
      x_break = base + 0x200000;
      x_code_refs = [];
    })

let prop_partition =
  QCheck.Test.make ~count:300
    ~name:"blocks cover procedure text exactly; fast builder = reference"
    (QCheck.make gen_synthetic_exe)
    (fun exe ->
      let prog = Om.Build.program exe in
      let reference = Oracle.program_ref exe in
      prog.Om.Ir.procs = reference.Om.Ir.procs
      && Array.for_all
           (fun p ->
             let cursor = ref p.Om.Ir.p_addr in
             let contiguous = ref true in
             Array.iter
               (fun b ->
                 if b.Om.Ir.b_addr <> !cursor then contiguous := false;
                 cursor := !cursor + (4 * Array.length b.Om.Ir.b_insts))
               p.Om.Ir.p_blocks;
             !contiguous && !cursor = p.Om.Ir.p_addr + p.Om.Ir.p_size)
           prog.Om.Ir.procs)

let () =
  Alcotest.run "om"
    [
      ( "ir",
        [
          Alcotest.test_case "procs cover text" `Quick test_procs_cover_text;
          Alcotest.test_case "blocks partition procs" `Quick test_blocks_partition_procs;
          Alcotest.test_case "successors are leaders" `Quick test_succs_are_leaders;
          Alcotest.test_case "find procs" `Quick test_find_procs;
          Alcotest.test_case "fast builder matches reference" `Quick
            test_fast_builder_matches_ref;
          QCheck_alcotest.to_alcotest prop_partition;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "summaries" `Quick test_dataflow;
          Alcotest.test_case "modified_by covers observed modification"
            `Quick test_modified_by_workloads;
          QCheck_alcotest.to_alcotest prop_modified_by;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "basic facts" `Quick test_liveness_basic;
          Alcotest.test_case "divqu remainder register" `Quick test_liveness_divqu_remainder;
          Alcotest.test_case "live after an instruction" `Quick test_live_after;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "identity without stubs" `Quick test_codegen_identity;
          Alcotest.test_case "nop padding preserves behaviour" `Quick test_nop_padding;
          Alcotest.test_case "text address retargeted" `Quick
            test_text_address_retargeted;
          Alcotest.test_case "sizeof matches generate" `Quick test_sizeof_matches_generate;
          Alcotest.test_case "table pc that is not an instruction" `Quick
            test_table_pc_not_an_instruction;
        ] );
    ]
