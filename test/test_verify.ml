(* The post-instrumentation verifier: a clean instrumentation passes every
   check; deliberate corruptions (a bit-flipped branch, a dropped register
   save, a perturbed data base, a non-canonical encoding, overlapping
   segments) are each caught
   by the named detector, also when the saves are live-filtered; the
   64-bit load_const materialisation is exact at its boundaries; and
   branches at the disp21 limit either relocate correctly or fail with a
   structured error — never a wrong encoding. *)

open Alpha
module Exe = Objfile.Exe
module I = Atom.Instrument

let compile src = Rtlib.compile_and_link ~name:"app.o" src

(* the paper's branch-counting tool, trimmed: one call per cond branch *)
let branch_tool api =
  let open Atom.Api in
  add_call_proto api "CondBranch(int, VALUE)";
  let n = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          let inst = get_last_inst b in
          if is_inst_type inst Inst_cond_branch then begin
            add_call_inst api inst Before "CondBranch" [ Int !n; Br_cond_value ];
            incr n
          end)
        (blocks p))
    (procs api)

(* the fflush reference pulls the runtime-library stdio unit into the
   analysis module, which carries the __libc_init the engine requires *)
let branch_analysis =
  {|
long taken; long nottaken;
void CondBranch(long n, long t) { if (t) taken++; else nottaken++; }
void FlushStats(void) { fflush((void *) 0); }
|}

let app_src =
  {|
long work(long n) {
  long i, s = 0;
  for (i = 0; i < n; i++) {
    if (i % 3 == 0) s += i;
    else s -= 1;
  }
  return s;
}
long main(void) {
  printf("result=%d\n", work(300));
  return 0;
}
|}

let instrumented =
  lazy
    (let exe = compile app_src in
     let exe', info =
       I.instrument_source ~exe ~tool:branch_tool ~analysis_src:branch_analysis
         ()
     in
     (exe, exe', info))

let copy_image exe =
  {
    exe with
    Exe.x_segs =
      List.map
        (fun s -> { s with Exe.seg_bytes = Bytes.copy s.Exe.seg_bytes })
        exe.Exe.x_segs;
  }

let word_at exe addr =
  let s =
    List.find
      (fun s ->
        addr >= s.Exe.seg_vaddr
        && addr + 4 <= s.Exe.seg_vaddr + Bytes.length s.Exe.seg_bytes)
      exe.Exe.x_segs
  in
  Code.read_word s.Exe.seg_bytes (addr - s.Exe.seg_vaddr)

let set_word exe addr w =
  let s =
    List.find
      (fun s ->
        addr >= s.Exe.seg_vaddr
        && addr + 4 <= s.Exe.seg_vaddr + Bytes.length s.Exe.seg_bytes)
      exe.Exe.x_segs
  in
  Code.write_word s.Exe.seg_bytes (addr - s.Exe.seg_vaddr) w

let checks_fired rep =
  List.sort_uniq compare (List.map (fun i -> i.Verify.v_check) rep.Verify.r_issues)

let test_clean_passes () =
  let exe, exe', info = Lazy.force instrumented in
  let rep = Verify.verify ~original:exe ~instrumented:exe' ~info () in
  if not (Verify.ok rep) then
    Alcotest.failf "clean instrumentation flagged:\n%s"
      (Verify.report_to_string rep)

let test_clean_passes_options () =
  let exe = compile app_src in
  List.iter
    (fun options ->
      let exe', info =
        I.instrument_source ~options ~exe ~tool:branch_tool
          ~analysis_src:branch_analysis ()
      in
      let rep = Verify.verify ~original:exe ~instrumented:exe' ~info () in
      if not (Verify.ok rep) then
        Alcotest.failf "options variant flagged:\n%s"
          (Verify.report_to_string rep))
    [
      { I.save_strategy = I.Save_all; call_style = I.Inline_saves;
        heap_mode = I.Partitioned (1 lsl 20) };
      { I.save_strategy = I.Summary_and_live; call_style = I.Wrapper;
        heap_mode = I.Linked };
      (* spliced analysis bodies open their own frames inside the stub;
         the frame parser must accept the balanced inner adjustments *)
      { I.save_strategy = I.Summary; call_style = I.Inline_body;
        heap_mode = I.Linked };
      (* with no call emitted the stub need not protect [ra], even though
         the save-all summary lists it *)
      { I.save_strategy = I.Save_all; call_style = I.Inline_body;
        heap_mode = I.Linked };
    ]

(* corruption 1: flip the sign bit of a conditional branch's displacement
   in the relocated program text — the word still decodes, but the target
   now lands megabytes outside the text *)
let corrupt_branch exe' info =
  let bad = copy_image exe' in
  let pt_base, pt_size = info.I.i_audit.I.au_prog_text in
  let rec find addr =
    if addr >= pt_base + pt_size then Alcotest.fail "no conditional branch"
    else
      match Code.decode (word_at bad addr) with
      | Insn.Cbr _ -> addr
      | _ -> find (addr + 4)
  in
  let addr = find pt_base in
  set_word bad addr (word_at bad addr lxor (1 lsl 20));
  bad

(* corruption 2: drop a register save inside a stub — rewrite the first
   [stq r, off(sp)] of a site stub to store the zero register instead, so
   the saved value is lost and the restore no longer mirrors the save *)
let corrupt_save exe' info =
  let bad = copy_image exe' in
  let exts =
    List.concat_map
      (fun (st : Om.Codegen.site) ->
        st.Om.Codegen.st_before @ st.Om.Codegen.st_after
        @ st.Om.Codegen.st_taken)
      info.I.i_audit.I.au_layout
  in
  let corrupt =
    List.exists
      (fun (ext : Om.Codegen.extent) ->
        let rec find k =
          if 4 * k >= ext.Om.Codegen.e_size then false
          else
            let addr = ext.Om.Codegen.e_addr + (4 * k) in
            match Code.decode (word_at bad addr) with
            | Insn.Mem { op = Insn.Stq; ra = _; rb; disp }
              when rb = Reg.sp ->
                set_word bad addr
                  (Code.encode
                     (Insn.Mem
                        { op = Insn.Stq; ra = Reg.zero; rb = Reg.sp; disp }));
                true
            | _ -> find (k + 1)
        in
        find 0)
      exts
  in
  Alcotest.(check bool) "found a save to corrupt" true corrupt;
  bad

(* corruption 3: move the data base — Figure 4 demands the application's
   data addresses stay exactly where the uninstrumented program had them *)
let corrupt_data_base exe' _info =
  { (copy_image exe') with Exe.x_data_start = exe'.Exe.x_data_start + 16 }

(* corruption 4: re-encode an instruction of the program text
   non-canonically — set one bit the decoder ignores, so the word decodes
   to the same instruction but no longer round-trips through the
   encoder *)
let corrupt_encoding exe' info =
  let bad = copy_image exe' in
  let pt_base, pt_size = info.I.i_audit.I.au_prog_text in
  let rec find addr =
    if addr >= pt_base + pt_size then Alcotest.fail "no word to re-encode"
    else
      let w = word_at bad addr in
      let same_insn bit =
        let w' = w lxor (1 lsl bit) in
        Code.decode w' = Code.decode w && not (Code.roundtrips w')
      in
      match List.find_opt same_insn (List.init 32 Fun.id) with
      | Some bit -> (addr, w lxor (1 lsl bit))
      | None -> find (addr + 4)
  in
  let addr, w = find pt_base in
  set_word bad addr w;
  bad

(* corruption 5: map a second segment over the analysis region, which
   is what instrumenting an instrumented image would produce; the loader
   refuses such an image (Exe.validate) *)
let corrupt_overlap exe' info =
  let bad = copy_image exe' in
  let rg_base, _ = info.I.i_audit.I.au_anal_region in
  let extra =
    { Exe.seg_vaddr = rg_base; seg_bytes = Bytes.make 16 '\000'; seg_bss = 0;
      seg_write = false }
  in
  { bad with Exe.x_segs = bad.Exe.x_segs @ [ extra ] }

let test_corrupt_branch () =
  let exe, exe', info = Lazy.force instrumented in
  let bad = corrupt_branch exe' info in
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  Alcotest.(check bool)
    "branch-range fired" true
    (List.mem "branch-range" (checks_fired rep))

let test_corrupt_save () =
  let exe, exe', info = Lazy.force instrumented in
  let bad = corrupt_save exe' info in
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  Alcotest.(check bool)
    "stub-saves fired" true
    (List.mem "stub-saves" (checks_fired rep))

let test_corrupt_data_base () =
  let exe, exe', info = Lazy.force instrumented in
  let bad = corrupt_data_base exe' info in
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  Alcotest.(check bool)
    "layout fired" true
    (List.mem "layout" (checks_fired rep))

let test_corrupt_overlap () =
  let exe, exe', info = Lazy.force instrumented in
  let bad = corrupt_overlap exe' info in
  (match Exe.validate bad with
  | _ -> Alcotest.fail "the loader accepts overlapping segments"
  | exception Objfile.Wire.Corrupt _ -> ());
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  if
    not
      (List.exists
         (fun i ->
           i.Verify.v_check = "layout"
           && String.starts_with ~prefix:"malformed executable"
                i.Verify.v_detail)
         rep.Verify.r_issues)
  then
    Alcotest.failf "overlapping segments not reported:\n%s"
      (Verify.report_to_string rep)

let test_corrupt_encoding () =
  let exe, exe', info = Lazy.force instrumented in
  let bad = corrupt_encoding exe' info in
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  Alcotest.(check bool)
    "decode-roundtrip fired" true
    (List.mem "decode-roundtrip" (checks_fired rep))

(* the corruptions are distinguished by name: each fires its own detector
   and none of the others' *)
let test_distinct_diagnostics () =
  let exe, exe', info = Lazy.force instrumented in
  let corruptions =
    [
      ("branch-range", corrupt_branch);
      ("stub-saves", corrupt_save);
      ("layout", corrupt_data_base);
      ("decode-roundtrip", corrupt_encoding);
    ]
  in
  List.iter
    (fun (own, corrupt) ->
      let bad = corrupt exe' info in
      let fired =
        checks_fired (Verify.check_image ~original:exe ~instrumented:bad ~info)
      in
      List.iter
        (fun (detector, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s corruption: %s %s" own detector
               (if detector = own then "fires" else "stays quiet"))
            (detector = own)
            (List.mem detector fired))
        corruptions)
    corruptions

(* -- the cached-liveness path ---------------------------------------------

   Under [Specialized] and [Summary_and_live] the verifier reads the
   original's liveness from [Atom.Toolcache], the same entry the engine
   used.  Its checks must not depend on that entry surviving: a report is
   the same whether the verifier hits the engine's entry or rebuilds it
   after [Toolcache.clear]. *)

let instrument_with options =
  let exe = compile app_src in
  let exe', info =
    I.instrument_source ~options ~exe ~tool:branch_tool
      ~analysis_src:branch_analysis ()
  in
  (exe, exe', info)

let specialized =
  lazy (instrument_with { I.default_options with I.call_style = I.Specialized })

let test_corrupt_save_specialized () =
  let exe, exe', info = Lazy.force specialized in
  let bad = corrupt_save exe' info in
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  Alcotest.(check bool)
    "stub-saves fired" true
    (List.mem "stub-saves" (checks_fired rep))

let test_report_independent_of_cache () =
  List.iter
    (fun (label, options) ->
      let exe, exe', info = instrument_with options in
      (* a corrupted save makes the report depend on the live sets *)
      let bad = corrupt_save exe' info in
      let reports () =
        List.map
          (fun img -> Verify.check_image ~original:exe ~instrumented:img ~info)
          [ exe'; bad ]
      in
      let warm = reports () in
      Atom.Toolcache.clear ();
      let cleared = reports () in
      Alcotest.(check bool) (label ^ ": clean image passes") true
        (Verify.ok (List.hd warm));
      Alcotest.(check bool) (label ^ ": corrupted image flagged") false
        (Verify.ok (List.nth warm 1));
      Alcotest.(check (list string))
        (label ^ ": same reports after Toolcache.clear")
        (List.map Verify.report_to_string warm)
        (List.map Verify.report_to_string cleared);
      Alcotest.(check bool) (label ^ ": same report values") true
        (warm = cleared))
    [
      ("specialized", { I.default_options with I.call_style = I.Specialized });
      ( "summary+live",
        { I.default_options with I.save_strategy = I.Summary_and_live } );
    ]

(* -- retargeted analysis calls ----------------------------------------------

   A stub whose [bsr] is pointed at another analysis procedure, or at
   another procedure's wrapper, still calls into the analysis region, so
   the branch-range check accepts it: only the callee check can tell. *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* the first [bsr] inside a stub: its address and target *)
let first_stub_call exe' info =
  let extents =
    List.concat_map
      (fun st -> st.Om.Codegen.st_before @ st.Om.Codegen.st_taken @ st.Om.Codegen.st_after)
      info.I.i_audit.I.au_layout
  in
  let rec scan = function
    | [] -> Alcotest.fail "no stub calls an analysis routine"
    | (ext : Om.Codegen.extent) :: rest ->
        let rec go k =
          if k >= ext.Om.Codegen.e_size / 4 then scan rest
          else
            let a = ext.Om.Codegen.e_addr + (4 * k) in
            match Code.decode (word_at exe' a) with
            | Insn.Br { link = true; disp; _ } -> (a, a + 4 + (4 * disp))
            | _ -> go (k + 1)
        in
        go 0
  in
  scan extents

(* point the first stub call at the first of [candidates] it does not
   already call, and return the verifier's stub-callee details *)
let retarget_first_call (exe, exe', info) candidates =
  let baddr, target = first_stub_call exe' info in
  let other =
    match List.find_opt (fun (_, a) -> a <> target) candidates with
    | Some (_, a) -> a
    | None -> Alcotest.fail "no other callee to point the call at"
  in
  let bad = copy_image exe' in
  (match Code.decode (word_at bad baddr) with
  | Insn.Br b ->
      set_word bad baddr
        (Code.encode (Insn.Br { b with disp = (other - (baddr + 4)) / 4 }))
  | _ -> assert false);
  let rep = Verify.check_image ~original:exe ~instrumented:bad ~info in
  ( Printf.sprintf "calls %#x, expected" other,
    List.filter_map
      (fun i ->
        if i.Verify.v_check = "stub-callee" then Some i.Verify.v_detail
        else None)
      rep.Verify.r_issues )

let check_retargeted ~expected (wanted, details) =
  if not (List.exists (fun d -> contains d wanted && contains d expected) details)
  then
    Alcotest.failf "no stub-callee finding \"%s ... %s\" (got: %s)" wanted
      expected (String.concat "; " details)

(* default options: every stub calls its procedure's wrapper *)
let test_retargeted_wrapper_call () =
  let ((_, _, info) as cell) = Lazy.force instrumented in
  check_retargeted ~expected:"expected the wrapper at"
    (retarget_first_call cell info.I.i_audit.I.au_wrappers)

(* [Specialized]: a stub that is not spliced calls the procedure itself *)
let test_retargeted_proc_call () =
  let ((_, _, info) as cell) = Lazy.force specialized in
  let procs =
    List.filter
      (fun (name, _) -> List.mem name [ "CondBranch"; "FlushStats"; "__libc_init" ])
      info.I.i_audit.I.au_procs
  in
  check_retargeted ~expected:"expected " (retarget_first_call cell procs)

(* -- load_const ----------------------------------------------------------- *)

(* interpret the emitted sequence: lda/ldah/sll over a register file *)
let eval_load_const r insns =
  let regs = Array.make 32 0L in
  let get i = if i = 31 then 0L else regs.(i) in
  List.iter
    (fun insn ->
      match insn with
      | Insn.Mem { op = Insn.Lda; ra; rb; disp } ->
          regs.(ra) <- Int64.add (get rb) (Int64.of_int disp)
      | Insn.Mem { op = Insn.Ldah; ra; rb; disp } ->
          regs.(ra) <- Int64.add (get rb) (Int64.of_int (disp * 65536))
      | Insn.Opr { op = Insn.Sll; ra; rb = Insn.Imm n; rc } ->
          regs.(rc) <- Int64.shift_left (get ra) n
      | i -> Alcotest.failf "unexpected instruction %s" (Insn.to_string i))
    insns;
  regs.(r)

let test_load_const_exact () =
  let values =
    [
      0; 1; -1; 42; 0x7FFF; -0x8000; 0x8000; 0x12345678;
      (* the old implementation's blind spot: hi would have been 0x8000 *)
      0x7FFF_8000; 0x7FFF_FFFF; -0x8000_0000;
      (* beyond 32 bits: the old implementation refused these outright *)
      0x8000_0000; 0x1_0000_0000; 0x7FFF_8000_0000; 0x1234_5678_9ABC_DEF0;
      -0x1234_5678_9ABC_DEF0; max_int; min_int;
    ]
  in
  List.iter
    (fun v ->
      let insns = Atom.Stubgen.load_const Reg.t0 v in
      (* every emitted instruction must actually encode *)
      List.iter (fun i -> ignore (Code.encode i)) insns;
      let got = eval_load_const Reg.t0 insns in
      if got <> Int64.of_int v then
        Alcotest.failf "load_const %#x evaluated to %#Lx (%d insns)" v got
          (List.length insns))
    values

let test_load_const_compact () =
  (* small constants stay small: one instruction for 16-bit, two for
     32-bit values *)
  Alcotest.(check int) "16-bit" 1 (List.length (Atom.Stubgen.load_const 1 42));
  Alcotest.(check int)
    "32-bit" 2
    (List.length (Atom.Stubgen.load_const 1 0x12345678))

(* -- disp21 boundary ------------------------------------------------------ *)

(* Synthetic images for the disp21 limit.  The megabyte-spanning branch
   lives in an uncalled procedure [f]; the entry point and the
   instrumented site both sit near the {e end} of the text so their stubs
   stay within [bsr] range of the wrappers placed after it.  The exe
   record is built by hand: a text segment, a token data segment, and the
   Func symbols OM rebuilds its view from. *)
let make_exe f_insns =
  let start =
    [
      Insn.Mem { op = Insn.Lda; ra = Reg.a0; rb = Reg.zero; disp = 0 };
      Insn.Mem { op = Insn.Lda; ra = Reg.v0; rb = Reg.zero; disp = 1 };
      Insn.Call_pal 0x83;
    ]
  in
  let nf = List.length f_insns in
  let insns = f_insns @ start in
  let n = List.length insns in
  let text = Bytes.create (4 * n) in
  List.iteri (fun k i -> Code.encode_at text (4 * k) i) insns;
  {
    Exe.x_entry = Exe.text_base + (4 * nf);
    x_segs =
      [
        { Exe.seg_vaddr = Exe.text_base; seg_bytes = text; seg_bss = 0;
          seg_write = false };
        { Exe.seg_vaddr = Exe.data_base; seg_bytes = Bytes.create 16;
          seg_bss = 0; seg_write = true };
      ];
    x_symbols =
      [
        { Exe.x_name = "f"; x_addr = Exe.text_base;
          x_type = Objfile.Types.Func; x_size = 4 * nf };
        { Exe.x_name = "start"; x_addr = Exe.text_base + (4 * nf);
          x_type = Objfile.Types.Func; x_size = 4 * List.length start };
      ];
    x_text_start = Exe.text_base;
    x_text_size = 4 * n;
    x_data_start = Exe.data_base;
    x_break = Exe.data_base + 16;
    x_code_refs = [];
  }

let ret = Insn.Jump { kind = Insn.Ret; ra = Reg.zero; rb = Reg.ra; hint = 0 }

(* f: nop / br +d / filler / nop (site, just before the target) / ret
   (the target).  The site's stub lands between branch and target. *)
let make_forward_exe d =
  let f =
    (Insn.nop :: Insn.Br { link = false; ra = Reg.zero; disp = d }
   :: List.init d (fun _ -> Insn.nop))
    @ [ ret ]
  in
  (make_exe f, Exe.text_base + (4 * (d + 1)))

(* f: nop (the target) / filler / nop (site) / br d (backward) / ret *)
let make_backward_exe d =
  let m = -d - 1 in
  let f =
    List.init m (fun _ -> Insn.nop)
    @ [ Insn.Br { link = false; ra = Reg.zero; disp = d }; ret ]
  in
  (make_exe f, Exe.text_base + (4 * (m - 1)))

let hit_tool site_pc api =
  let open Atom.Api in
  add_call_proto api "Hit()";
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          List.iter
            (fun i -> if inst_pc i = site_pc then add_call_inst api i Before "Hit" [])
            (insts b))
        (blocks p))
    (procs api)

let hit_analysis =
  "long hits;\nvoid Hit(void) { hits = hits + 1; }\nvoid HitFlush(void) { fflush((void *) 0); }\n"

let instrument_at site_pc exe =
  I.instrument_source ~exe ~tool:(hit_tool site_pc)
    ~analysis_src:hit_analysis ()

(* words the before-stub inserts at the site (measured, not assumed) *)
let stub_words =
  lazy
    (let exe, site = make_forward_exe 16 in
     let _, info = instrument_at site exe in
     let s = (info.I.i_map (site + 4) - info.I.i_map site - 4) / 4 in
     Alcotest.(check bool) "probe found a stub" true (s > 0);
     s)

let disp21_max = (1 lsl 20) - 1
let disp21_min = -(1 lsl 20)

let test_disp21_forward_at_limit () =
  let s = Lazy.force stub_words in
  let d = disp21_max - s in
  let exe, site = make_forward_exe d in
  let exe', info = instrument_at site exe in
  (* the rewritten branch sits exactly at the limit *)
  let baddr = info.I.i_map (Exe.text_base + 4) in
  (match Code.decode (word_at exe' baddr) with
  | Insn.Br { disp; _ } ->
      Alcotest.(check int) "displacement at the disp21 limit" disp21_max disp
  | i -> Alcotest.failf "expected br at %#x, found %s" baddr (Insn.to_string i));
  let rep = Verify.check_image ~original:exe ~instrumented:exe' ~info in
  if not (Verify.ok rep) then
    Alcotest.failf "at-limit image flagged:\n%s" (Verify.report_to_string rep)

let test_disp21_forward_over_limit () =
  let s = Lazy.force stub_words in
  let d = disp21_max - s + 1 in
  let exe, site = make_forward_exe d in
  match instrument_at site exe with
  | exception I.Error msg ->
      let has needle =
        let rec go i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the 21-bit range" true (has "21-bit");
      Alcotest.(check bool) "names the procedure" true (has "procedure f,")
  | _exe', _ ->
      Alcotest.fail "over-limit branch was encoded instead of rejected"

let test_disp21_backward_over_limit () =
  let s = Lazy.force stub_words in
  (* the stub pushes the displacement one word past the negative limit *)
  let d = disp21_min + s - 1 in
  let exe, site = make_backward_exe d in
  match instrument_at site exe with
  | exception I.Error msg ->
      let has needle =
        let rec go i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the 21-bit range" true (has "21-bit")
  | _ -> Alcotest.fail "over-limit backward branch was encoded"

let () =
  Alcotest.run "verify"
    [
      ( "verifier",
        [
          Alcotest.test_case "clean instrumentation passes" `Quick
            test_clean_passes;
          Alcotest.test_case "clean under option variants" `Quick
            test_clean_passes_options;
          Alcotest.test_case "bit-flipped branch caught" `Quick
            test_corrupt_branch;
          Alcotest.test_case "dropped register save caught" `Quick
            test_corrupt_save;
          Alcotest.test_case "perturbed data base caught" `Quick
            test_corrupt_data_base;
          Alcotest.test_case "non-canonical encoding caught" `Quick
            test_corrupt_encoding;
          Alcotest.test_case "overlapping segments caught" `Quick
            test_corrupt_overlap;
          Alcotest.test_case "diagnostics distinct" `Quick
            test_distinct_diagnostics;
          Alcotest.test_case "retargeted analysis call caught" `Quick
            test_retargeted_proc_call;
          Alcotest.test_case "retargeted analysis call caught, wrappers"
            `Quick test_retargeted_wrapper_call;
        ] );
      ( "cached liveness",
        [
          Alcotest.test_case "dropped save caught in a specialized image"
            `Quick test_corrupt_save_specialized;
          Alcotest.test_case "report independent of the cache" `Quick
            test_report_independent_of_cache;
        ] );
      ( "load_const",
        [
          Alcotest.test_case "exact at boundaries" `Quick test_load_const_exact;
          Alcotest.test_case "compact encodings" `Quick test_load_const_compact;
        ] );
      ( "disp21",
        [
          Alcotest.test_case "forward at the limit" `Slow
            test_disp21_forward_at_limit;
          Alcotest.test_case "forward past the limit" `Slow
            test_disp21_forward_over_limit;
          Alcotest.test_case "backward past the limit" `Slow
            test_disp21_backward_over_limit;
        ] );
    ]
