(* Random instruction generation: a seeded generator over the four main
   instruction formats (memory, branch, integer operate, floating
   operate) drives two checks:

   - encode -> decode -> encode is the identity on the 32-bit word, so
     every generated instruction has a canonical binary form;

   - stepping a single generated instruction from a common random
     register state leaves the reference interpreter and the
     closure-compiled fast engine in identical states: registers, FP
     registers, PC, memory around any effective address, outcome and the
     full statistics record.  Instructions that fault do so identically
     under both engines. *)

let seed = 0x5EED_A70B

(* -- generator ----------------------------------------------------------- *)

let mem_ops =
  [ Alpha.Insn.Lda; Ldah; Ldbu; Ldwu; Ldl; Ldq; Ldq_u; Stb; Stw; Stl; Stq;
    Stq_u; Ldt; Stt ]

let opr_ops =
  [ Alpha.Insn.Addl; Subl; Addq; Subq; S4addq; S8addq; Mull; Mulq; Umulh;
    Cmpeq; Cmplt; Cmple; Cmpult; Cmpule; Cmpbge; And_; Bic; Bis; Ornot; Xor;
    Eqv; Sll; Srl; Sra; Zap; Zapnot; Extbl; Extwl; Extll; Extql; Insbl;
    Inswl; Insll; Insql; Mskbl; Mskwl; Mskll; Mskql; Cmoveq; Cmovne; Cmovlt;
    Cmovge; Cmovle; Cmovgt; Cmovlbs; Cmovlbc ]

let fop_ops =
  [ Alpha.Insn.Addt; Subt; Mult; Divt; Cmpteq; Cmptlt; Cmptle; Cvtqt; Cvttq;
    Cpys; Cpysn ]

let br_conds = [ Alpha.Insn.Beq; Bne; Blt; Ble; Bgt; Bge; Blbc; Blbs ]
let fbr_conds = [ Alpha.Insn.Fbeq; Fbne; Fblt; Fble; Fbgt; Fbge ]
let jmp_kinds = [ Alpha.Insn.Jmp; Jsr; Ret; Jsr_coroutine ]

let pick st l = List.nth l (Random.State.int st (List.length l))
let reg st = Random.State.int st 32

(* displacements stay small so branch targets land inside (or just past)
   the padded probe segment *)
let gen_insn st : Alpha.Insn.t =
  match Random.State.int st 6 with
  | 0 ->
      Mem
        {
          op = pick st mem_ops;
          ra = reg st;
          rb = reg st;
          disp = Random.State.int st 65536 - 32768;
        }
  | 1 ->
      let rb =
        if Random.State.bool st then Alpha.Insn.Reg (reg st)
        else Alpha.Insn.Imm (Random.State.int st 256)
      in
      Opr { op = pick st opr_ops; ra = reg st; rb; rc = reg st }
  | 2 -> Fop { op = pick st fop_ops; fa = reg st; fb = reg st; fc = reg st }
  | 3 ->
      Br
        {
          link = Random.State.bool st;
          ra = reg st;
          disp = Random.State.int st 8 - 2;
        }
  | 4 ->
      if Random.State.bool st then
        Cbr
          {
            cond = pick st br_conds;
            ra = reg st;
            disp = Random.State.int st 8 - 2;
          }
      else
        Fbr
          {
            cond = pick st fbr_conds;
            fa = reg st;
            disp = Random.State.int st 8 - 2;
          }
  | _ -> Jump { kind = pick st jmp_kinds; ra = reg st; rb = reg st; hint = 0 }

(* -- encode/decode roundtrip --------------------------------------------- *)

let test_roundtrip () =
  let st = Random.State.make [| seed |] in
  for i = 1 to 2000 do
    let insn = gen_insn st in
    let w = Alpha.Code.encode insn in
    let insn' = Alpha.Code.decode w in
    let w' = Alpha.Code.encode insn' in
    if w <> w' then
      Alcotest.failf "roundtrip %d: %#x re-encodes as %#x" i w w'
  done

(* -- single-instruction differential -------------------------------------- *)

let nop_word = Alpha.Code.encode Alpha.Insn.nop

(* the words of a probe image *)
let probe_words = 6

(* a probe image: the instruction under test at the entry point, padded
   with no-ops so small forward branch targets stay inside the segment *)
let make_exe w =
  let words = w :: List.init (probe_words - 1) (fun _ -> nop_word) in
  let text = Bytes.create (4 * List.length words) in
  List.iteri (fun i w -> Alpha.Code.write_word text (4 * i) w) words;
  let data = Bytes.make 8192 '\000' in
  {
    Objfile.Exe.x_entry = Objfile.Exe.text_base;
    x_segs =
      [
        {
          Objfile.Exe.seg_vaddr = Objfile.Exe.text_base;
          seg_bytes = text;
          seg_bss = 0;
          seg_write = false;
        };
        {
          Objfile.Exe.seg_vaddr = Objfile.Exe.data_base;
          seg_bytes = data;
          seg_bss = 0;
          seg_write = true;
        };
      ];
    x_symbols = [];
    x_text_start = Objfile.Exe.text_base;
    x_text_size = Bytes.length text;
    x_data_start = Objfile.Exe.data_base;
    x_break = Objfile.Exe.data_base + Bytes.length data;
    x_code_refs = [];
  }

(* register values: a mix of small integers, data-segment addresses (so
   memory operands usually hit mapped pages) and arbitrary 64-bit
   patterns *)
let gen_reg_value st =
  match Random.State.int st 4 with
  | 0 -> Int64.of_int (Random.State.int st 256)
  | 1 | 2 ->
      Int64.of_int (Objfile.Exe.data_base + Random.State.int st 4096)
  | _ -> Random.State.int64 st Int64.max_int

let outcome_str = function
  | Machine.Sim.Exit n -> Printf.sprintf "exit %d" n
  | Machine.Sim.Fault f -> "fault " ^ Machine.Fault.to_string f
  | Machine.Sim.Out_of_fuel -> "out of fuel"

(* Run the probe image of [w] from the given registers.  The budget
   covers the whole image, so the fast engine runs the instruction in the
   turbo block that starts at the entry: a budget shorter than that block
   would make both engines take the reference step. *)
let step engine w regs fregs =
  let m = Machine.Sim.load ~engine (make_exe w) in
  for r = 0 to 30 do
    Machine.Sim.set_reg m r regs.(r);
    Machine.Sim.set_freg_bits m r fregs.(r)
  done;
  let outcome = Machine.Sim.run ~max_insns:probe_words m in
  (outcome, m)

let test_step_agreement () =
  let st = Random.State.make [| seed lxor 0xF00D |] in
  for i = 1 to 500 do
    let insn = gen_insn st in
    let w = Alpha.Code.encode insn in
    let regs = Array.init 31 (fun _ -> gen_reg_value st) in
    let fregs = Array.init 31 (fun _ -> gen_reg_value st) in
    let o_ref, m_ref = step Machine.Sim.Ref w regs fregs in
    let o_fast, m_fast = step Machine.Sim.Fast w regs fregs in
    let ctx = Printf.sprintf "insn %d (%#010x)" i w in
    if o_ref <> o_fast then
      Alcotest.failf "%s: outcome ref=%s fast=%s" ctx (outcome_str o_ref)
        (outcome_str o_fast);
    if Machine.Sim.pc m_ref <> Machine.Sim.pc m_fast then
      Alcotest.failf "%s: pc ref=%#x fast=%#x" ctx (Machine.Sim.pc m_ref)
        (Machine.Sim.pc m_fast);
    for r = 0 to 31 do
      if Machine.Sim.reg m_ref r <> Machine.Sim.reg m_fast r then
        Alcotest.failf "%s: $%d ref=%Lx fast=%Lx" ctx r
          (Machine.Sim.reg m_ref r) (Machine.Sim.reg m_fast r);
      if Machine.Sim.freg_bits m_ref r <> Machine.Sim.freg_bits m_fast r then
        Alcotest.failf "%s: $f%d ref=%Lx fast=%Lx" ctx r
          (Machine.Sim.freg_bits m_ref r)
          (Machine.Sim.freg_bits m_fast r)
    done;
    if Machine.Sim.stats m_ref <> Machine.Sim.stats m_fast then
      Alcotest.failf "%s: statistics records differ" ctx;
    (* for memory operands, probe the quadwords around the effective
       address in both memories *)
    (match insn with
    | Alpha.Insn.Mem { op; ra = _; rb; disp }
      when op <> Alpha.Insn.Lda && op <> Alpha.Insn.Ldah ->
        let base = if rb = 31 then 0L else regs.(rb) in
        let ea = Int64.to_int (Int64.add base (Int64.of_int disp)) in
        let a0 = ea land lnot 7 in
        List.iter
          (fun a ->
            if Machine.Sim.read_u64 m_ref a <> Machine.Sim.read_u64 m_fast a
            then
              Alcotest.failf "%s: memory at %#x differs (%Lx vs %Lx)" ctx a
                (Machine.Sim.read_u64 m_ref a)
                (Machine.Sim.read_u64 m_fast a))
          [ a0 - 8; a0; a0 + 8 ]
    | _ -> ())
  done

(* -- whole-program fault symmetry ---------------------------------------- *)

(* Deliberately-faulting programs long enough that the fast engine takes
   its batched (turbo) path: a prologue of safe arithmetic, then one wild
   memory access, then trailing instructions that must never execute.
   Both engines must report the same structured fault, at the same PC,
   with the same statistics — the fast engine has to unwind its batched
   counters back to the faulting instruction. *)

let make_prog words =
  let words = words @ [ nop_word; nop_word; nop_word ] in
  let text = Bytes.create (4 * List.length words) in
  List.iteri (fun i w -> Alpha.Code.write_word text (4 * i) w) words;
  let exe = make_exe nop_word in
  let seg_data = List.nth exe.Objfile.Exe.x_segs 1 in
  {
    exe with
    Objfile.Exe.x_segs =
      [
        {
          Objfile.Exe.seg_vaddr = Objfile.Exe.text_base;
          seg_bytes = text;
          seg_bss = 0;
          seg_write = false;
        };
        seg_data;
      ];
    x_text_size = Bytes.length text;
  }

let enc = Alpha.Code.encode

(* addq $r, imm, $r on scratch registers: never faults *)
let safe_op st =
  enc
    (Alpha.Insn.Opr
       {
         op = Alpha.Insn.Addq;
         ra = Random.State.int st 8;
         rb = Alpha.Insn.Imm (Random.State.int st 256);
         rc = Random.State.int st 8;
       })

(* one wild memory access; $10 is preloaded with the wild base address *)
let wild_sites =
  [
    (* load from the unmapped low pages *)
    (0x1000, enc (Mem { op = Alpha.Insn.Ldq; ra = 9; rb = 10; disp = 0 }));
    (* store into read-only text *)
    ( Objfile.Exe.text_base,
      enc (Mem { op = Alpha.Insn.Stq; ra = 9; rb = 10; disp = 0 }) );
    (* load from the text–data gap *)
    (0x1300_0000, enc (Mem { op = Alpha.Insn.Ldl; ra = 9; rb = 10; disp = 8 }));
    (* store far beyond the break *)
    ( 0x7f00_0000,
      enc (Mem { op = Alpha.Insn.Stb; ra = 9; rb = 10; disp = -4 }) );
    (* load below the stack's writable window *)
    ( Objfile.Exe.text_base - (64 * 1024 * 1024),
      enc (Mem { op = Alpha.Insn.Ldq_u; ra = 9; rb = 10; disp = 0 }) );
  ]

let run_prog engine exe wild_base fuel =
  let m = Machine.Sim.load ~engine exe in
  Machine.Sim.set_reg m 10 (Int64.of_int wild_base);
  let outcome = Machine.Sim.run ~max_insns:fuel m in
  (outcome, m)

let test_program_faults () =
  let st = Random.State.make [| seed lxor 0xFA17 |] in
  for i = 1 to 100 do
    let prologue = List.init (Random.State.int st 12) (fun _ -> safe_op st) in
    let wild_base, wild = pick st wild_sites in
    let exe = make_prog (prologue @ [ wild ] @ List.init 4 (fun _ -> safe_op st)) in
    let ctx = Printf.sprintf "program %d (prologue %d)" i (List.length prologue) in
    (* ample fuel: the fault must stop both engines identically *)
    let o_ref, m_ref = run_prog Machine.Sim.Ref exe wild_base 1000 in
    let o_fast, m_fast = run_prog Machine.Sim.Fast exe wild_base 1000 in
    if o_ref <> o_fast then
      Alcotest.failf "%s: outcome ref=%s fast=%s" ctx (outcome_str o_ref)
        (outcome_str o_fast);
    (match o_ref with
    | Machine.Sim.Fault (Machine.Fault.Segv _) -> ()
    | o -> Alcotest.failf "%s: expected segv, got %s" ctx (outcome_str o));
    if Machine.Sim.pc m_ref <> Machine.Sim.pc m_fast then
      Alcotest.failf "%s: pc ref=%#x fast=%#x" ctx (Machine.Sim.pc m_ref)
        (Machine.Sim.pc m_fast);
    let want_pc = Objfile.Exe.text_base + (4 * List.length prologue) in
    if Machine.Sim.pc m_ref <> want_pc then
      Alcotest.failf "%s: fault pc %#x, expected %#x" ctx
        (Machine.Sim.pc m_ref) want_pc;
    if Machine.Sim.stats m_ref <> Machine.Sim.stats m_fast then
      Alcotest.failf "%s: statistics records differ" ctx;
    (* fuel cut inside the prologue: both engines run out at the same
       spot with the same counters *)
    if prologue <> [] then begin
      let cut = 1 + Random.State.int st (List.length prologue) in
      let o_ref, m_ref = run_prog Machine.Sim.Ref exe wild_base cut in
      let o_fast, m_fast = run_prog Machine.Sim.Fast exe wild_base cut in
      if o_ref <> o_fast then
        Alcotest.failf "%s: fuel-cut outcome ref=%s fast=%s" ctx
          (outcome_str o_ref) (outcome_str o_fast);
      (match o_ref with
      | Machine.Sim.Out_of_fuel -> ()
      | o -> Alcotest.failf "%s: fuel cut %d: expected out of fuel, got %s"
               ctx cut (outcome_str o));
      if Machine.Sim.stats m_ref <> Machine.Sim.stats m_fast then
        Alcotest.failf "%s: fuel-cut statistics differ" ctx
    end
  done

(* -- generated branchy programs ------------------------------------------- *)

(* Forward-only conditional branches over random register states, run on
   both engines, which must agree on outcome, PC, every register and the
   full statistics record. *)
let test_branchy_programs () =
  let st = Random.State.make [| seed lxor 0x6A0F11E |] in
  for i = 1 to 200 do
    let n = 8 + Random.State.int st 24 in
    let words =
      List.init n (fun _ ->
          if Random.State.int st 3 = 0 then
            enc
              (Alpha.Insn.Cbr
                 {
                   cond = pick st br_conds;
                   ra = Random.State.int st 8;
                   disp = Random.State.int st 6;
                 })
          else safe_op st)
    in
    let exe = make_prog words in
    let regs = Array.init 8 (fun _ -> Int64.of_int (Random.State.int st 512)) in
    let run engine =
      let m = Machine.Sim.load ~engine exe in
      Array.iteri (fun r v -> Machine.Sim.set_reg m r v) regs;
      let o = Machine.Sim.run ~max_insns:2000 m in
      (o, m)
    in
    let o_ref, m_ref = run Machine.Sim.Ref in
    let o_fast, m_fast = run Machine.Sim.Fast in
    let ctx = Printf.sprintf "branchy program %d (%d insns)" i n in
    if o_ref <> o_fast then
      Alcotest.failf "%s: outcome ref=%s fast=%s" ctx (outcome_str o_ref)
        (outcome_str o_fast);
    if Machine.Sim.pc m_ref <> Machine.Sim.pc m_fast then
      Alcotest.failf "%s: pc ref=%#x fast=%#x" ctx (Machine.Sim.pc m_ref)
        (Machine.Sim.pc m_fast);
    for r = 0 to 31 do
      if Machine.Sim.reg m_ref r <> Machine.Sim.reg m_fast r then
        Alcotest.failf "%s: $%d ref=%Lx fast=%Lx" ctx r
          (Machine.Sim.reg m_ref r) (Machine.Sim.reg m_fast r)
    done;
    if Machine.Sim.stats m_ref <> Machine.Sim.stats m_fast then
      Alcotest.failf "%s: statistics records differ" ctx
  done

(* illegal words and unhandled PAL calls must fault identically *)
let test_fault_symmetry () =
  List.iter
    (fun w ->
      let regs = Array.make 31 0L and fregs = Array.make 31 0L in
      let o_ref, _ = step Machine.Sim.Ref w regs fregs in
      let o_fast, _ = step Machine.Sim.Fast w regs fregs in
      if o_ref <> o_fast then
        Alcotest.failf "word %#x: ref=%s fast=%s" w (outcome_str o_ref)
          (outcome_str o_fast);
      match o_ref with
      | Machine.Sim.Fault _ -> ()
      | o -> Alcotest.failf "word %#x: expected fault, got %s" w (outcome_str o))
    [ 0x0000_0000 (* call_pal 0 *); 0x1c00_0000 (* unallocated opcode *) ]

let () =
  Alcotest.run "insn-gen"
    [
      ( "generated instructions",
        [
          Alcotest.test_case "encode/decode/encode identity" `Quick
            test_roundtrip;
          Alcotest.test_case "single-step engine agreement" `Quick
            test_step_agreement;
          Alcotest.test_case "fault symmetry" `Quick test_fault_symmetry;
          Alcotest.test_case "faulting programs" `Quick test_program_faults;
          Alcotest.test_case "generated branchy programs" `Quick
            test_branchy_programs;
        ] );
    ]
