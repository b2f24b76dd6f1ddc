(* Unit and property tests for the ISA layer: encodings, register sets,
   and the pipeline cost model. *)

open Alpha

(* -- generators --------------------------------------------------------- *)

let gen_reg = QCheck.Gen.int_range 0 31
let gen_disp16 = QCheck.Gen.int_range (-32768) 32767
let gen_disp21 = QCheck.Gen.int_range (-(1 lsl 20)) ((1 lsl 20) - 1)

let gen_insn : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let mem_op = oneofl Insn.all_mem_ops in
  let opr_op = oneofl Insn.all_opr_ops in
  let fop_op = oneofl Insn.all_fop_ops in
  let cond = oneofl Insn.all_br_conds in
  let fcond = oneofl Insn.all_fbr_conds in
  frequency
    [
      ( 4,
        mem_op >>= fun op ->
        gen_reg >>= fun ra ->
        gen_reg >>= fun rb ->
        gen_disp16 >|= fun disp -> Insn.Mem { op; ra; rb; disp } );
      ( 4,
        opr_op >>= fun op ->
        gen_reg >>= fun ra ->
        gen_reg >>= fun rc ->
        oneof
          [ (gen_reg >|= fun r -> Insn.Reg r); (int_range 0 255 >|= fun n -> Insn.Imm n) ]
        >|= fun rb -> Insn.Opr { op; ra; rb; rc } );
      ( 2,
        fop_op >>= fun op ->
        gen_reg >>= fun fa ->
        gen_reg >>= fun fb ->
        gen_reg >|= fun fc -> Insn.Fop { op; fa; fb; fc } );
      ( 1,
        bool >>= fun link ->
        gen_reg >>= fun ra ->
        gen_disp21 >|= fun disp -> Insn.Br { link; ra; disp } );
      ( 2,
        cond >>= fun c ->
        gen_reg >>= fun ra ->
        gen_disp21 >|= fun disp -> Insn.Cbr { cond = c; ra; disp } );
      ( 1,
        fcond >>= fun c ->
        gen_reg >>= fun fa ->
        gen_disp21 >|= fun disp -> Insn.Fbr { cond = c; fa; disp } );
      ( 1,
        oneofl [ Insn.Jmp; Insn.Jsr; Insn.Ret; Insn.Jsr_coroutine ] >>= fun kind ->
        gen_reg >>= fun ra ->
        gen_reg >>= fun rb ->
        int_range 0 0x3FFF >|= fun hint -> Insn.Jump { kind; ra; rb; hint } );
      (1, int_range 0 0x3FFFFFF >|= fun n -> Insn.Call_pal n);
    ]

let arbitrary_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"decode (encode i) = i" arbitrary_insn
    (fun i -> Insn.equal (Code.decode (Code.encode i)) i)

let prop_decode_idempotent =
  QCheck.Test.make ~count:2000 ~name:"decode is idempotent through encode"
    QCheck.(make Gen.(int_bound 0xFFFFFFF >|= fun n -> n * 17 land 0xFFFFFFFF))
    (fun w -> Insn.equal (Code.decode (Code.encode (Code.decode w))) (Code.decode w))

let prop_word_io =
  QCheck.Test.make ~count:500 ~name:"read_word/write_word roundtrip"
    QCheck.(int_bound 0xFFFFFFF)
    (fun w ->
      let b = Bytes.create 8 in
      Code.write_word b 2 w;
      Code.read_word b 2 = w)

let prop_zero_never_defined =
  QCheck.Test.make ~count:1000 ~name:"$31 never appears in defs/uses sets"
    arbitrary_insn (fun i ->
      (not (Regset.mem 31 (Insn.defs i)))
      && (not (Regset.mem_f 31 (Insn.defs i)))
      && (not (Regset.mem 31 (Insn.uses i)))
      && not (Regset.mem_f 31 (Insn.uses i)))

let prop_branch_disp =
  QCheck.Test.make ~count:1000 ~name:"with_branch_disp sets what branch_disp reads"
    QCheck.(pair arbitrary_insn (make gen_disp21))
    (fun (i, d) ->
      match Insn.branch_disp i with
      | None -> true
      | Some _ -> Insn.branch_disp (Insn.with_branch_disp i d) = Some d)

let prop_schedule_bounds =
  QCheck.Test.make ~count:300 ~name:"ceil n/2 <= schedule <= sum of latencies"
    QCheck.(list_of_size Gen.(int_range 1 20) arbitrary_insn)
    (fun insns ->
      let a = Array.of_list insns in
      let s = Cost.schedule a in
      let n = Array.length a in
      let upper = Array.fold_left (fun acc i -> acc + Cost.latency i) n a in
      s >= (n + 1) / 2 && s <= upper)

(* -- regset properties --------------------------------------------------- *)

let gen_regset =
  QCheck.Gen.(
    pair (list_size (int_range 0 8) gen_reg) (list_size (int_range 0 4) gen_reg)
    >|= fun (is, fs) -> Regset.union (Regset.of_list is) (Regset.of_list_f fs))

let arbitrary_regset = QCheck.make gen_regset

let prop_regset_algebra =
  QCheck.Test.make ~count:1000 ~name:"regset union/inter/diff laws"
    QCheck.(pair arbitrary_regset arbitrary_regset)
    (fun (a, b) ->
      Regset.equal (Regset.union a b) (Regset.union b a)
      && Regset.equal (Regset.inter a b) (Regset.inter b a)
      && Regset.subset (Regset.diff a b) a
      && Regset.is_empty (Regset.inter (Regset.diff a b) b)
      && Regset.equal (Regset.union (Regset.inter a b) (Regset.diff a b)) a)

let prop_regset_members =
  QCheck.Test.make ~count:1000 ~name:"regset membership matches listings"
    arbitrary_regset (fun s ->
      List.for_all (fun r -> Regset.mem r s) (Regset.ints s)
      && List.for_all (fun r -> Regset.mem_f r s) (Regset.fps s)
      && Regset.cardinal s = List.length (Regset.ints s) + List.length (Regset.fps s))

(* -- unit tests ---------------------------------------------------------- *)

let test_known_encodings () =
  (* hand-checked words against the Alpha Architecture Reference Manual
     formats: lda $16, 8($30) and beq $1, +3 and bis $31,$31,$31 (nop) *)
  let lda = Insn.Mem { op = Insn.Lda; ra = 16; rb = 30; disp = 8 } in
  Alcotest.(check int) "lda" 0x221E0008 (Code.encode lda);
  let beq = Insn.Cbr { cond = Insn.Beq; ra = 1; disp = 3 } in
  Alcotest.(check int) "beq" 0xE4200003 (Code.encode beq);
  Alcotest.(check int) "nop" 0x47FF041F (Code.encode Insn.nop)

(* every function code under each operate opcode: [decode] yields an
   operate exactly where [opr_codes]/[fop_codes] assign the pair, [Raw]
   elsewhere, and every assigned word round-trips *)
let test_decode_tables () =
  let assigned codes_of ops =
    let t = Hashtbl.create 64 in
    List.iter (fun op -> Hashtbl.replace t (codes_of op) op) ops;
    Hashtbl.find_opt t
  in
  let opr = assigned Code.opr_codes Insn.all_opr_ops
  and fop = assigned Code.fop_codes Insn.all_fop_ops in
  let seen = ref 0 in
  let check opc func w ~expect =
    let i = Code.decode w in
    if not (expect i) then
      Alcotest.failf "opcode %#x function %#x: %#010x decodes to %s" opc func w
        (Insn.to_string i);
    match i with
    | Insn.Raw _ -> ()
    | _ ->
        incr seen;
        if Code.encode i <> w then
          Alcotest.failf "%#010x (%s) does not round-trip" w (Insn.to_string i)
  in
  for opc = 0x10 to 0x13 do
    for func = 0 to 127 do
      let expect i =
        match (i, opr (opc, func)) with
        | Insn.Opr { op; _ }, Some op' -> op = op'
        | Insn.Raw _, None -> true
        | _ -> false
      in
      let base = (opc lsl 26) lor (1 lsl 21) lor (func lsl 5) lor 3 in
      (* register and 8-bit literal forms of the second operand *)
      check opc func (base lor (2 lsl 16)) ~expect;
      check opc func (base lor (0xA5 lsl 13) lor (1 lsl 12)) ~expect
    done
  done;
  Alcotest.(check int) "every integer operate decoded, in both forms"
    (2 * List.length Insn.all_opr_ops)
    !seen;
  seen := 0;
  for opc = 0x16 to 0x17 do
    for func = 0 to 2047 do
      let expect i =
        match (i, fop (opc, func)) with
        | Insn.Fop { op; _ }, Some op' -> op = op'
        | Insn.Raw _, None -> true
        | _ -> false
      in
      check opc func
        ((opc lsl 26) lor (1 lsl 21) lor (2 lsl 16) lor (func lsl 5) lor 3)
        ~expect
    done
  done;
  Alcotest.(check int) "every floating operate decoded"
    (List.length Insn.all_fop_ops) !seen

let test_reg_names () =
  Alcotest.(check string) "sp" "sp" (Reg.name Reg.sp);
  Alcotest.(check (option int)) "$17" (Some 17) (Reg.of_name "$17");
  Alcotest.(check (option int)) "a0" (Some 16) (Reg.of_name "a0");
  Alcotest.(check (option int)) "f10" (Some 10) (Reg.of_fname "$f10");
  Alcotest.(check bool) "sp not caller save" false (Reg.is_caller_save Reg.sp);
  Alcotest.(check bool) "s0 callee save" true (Reg.is_callee_save 9);
  Alcotest.(check bool) "v0 caller save" true (Reg.is_caller_save 0)

let test_classification () =
  let beq = Insn.Cbr { cond = Insn.Beq; ra = 1; disp = 0 } in
  Alcotest.(check bool) "beq is cond branch" true (Insn.is_cond_branch beq);
  Alcotest.(check bool) "beq falls through" true (Insn.falls_through beq);
  let ldq = Insn.Mem { op = Insn.Ldq; ra = 1; rb = 2; disp = 0 } in
  Alcotest.(check bool) "ldq is load" true (Insn.is_load ldq);
  Alcotest.(check int) "ldq bytes" 8 (Insn.access_bytes ldq);
  let lda = Insn.Mem { op = Insn.Lda; ra = 1; rb = 2; disp = 0 } in
  Alcotest.(check bool) "lda is not a memory ref" false (Insn.is_memory_ref lda);
  let bsr = Insn.Br { link = true; ra = 26; disp = 5 } in
  Alcotest.(check bool) "bsr is call" true (Insn.is_call bsr);
  Alcotest.(check (option int)) "bsr target" (Some 0x1018)
    (Insn.branch_target ~pc:0x1000 bsr)

let test_cost_pairing () =
  (* an integer op cannot pair with an integer op, but pairs with a
     floating op *)
  Alcotest.(check bool) "iop+iop" false (Cost.can_pair Cost.C_iop Cost.C_iop);
  Alcotest.(check bool) "iop+fop" true (Cost.can_pair Cost.C_iop Cost.C_fop);
  Alcotest.(check bool) "ld+st" false (Cost.can_pair Cost.C_load Cost.C_store);
  let iop r = Insn.Opr { op = Insn.Addq; ra = r; rb = Insn.Imm 1; rc = r } in
  (* dependent chain cannot dual issue; independent int+float can *)
  Alcotest.(check int) "dependent chain" 2 (Cost.schedule [| iop 1; iop 1 |]);
  let fop = Insn.Fop { op = Insn.Cpys; fa = 1; fb = 1; fc = 2 } in
  let c = Cost.schedule [| iop 1; fop |] in
  Alcotest.(check int) "int+float pair" 1 c

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_decode_idempotent;
      prop_word_io;
      prop_zero_never_defined;
      prop_branch_disp;
      prop_schedule_bounds;
      prop_regset_algebra;
      prop_regset_members;
    ]

let () =
  Alcotest.run "alpha"
    [
      ( "unit",
        [
          Alcotest.test_case "known encodings" `Quick test_known_encodings;
          Alcotest.test_case "decode tables, every function code" `Quick
            test_decode_tables;
          Alcotest.test_case "register names" `Quick test_reg_names;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "cost pairing" `Quick test_cost_pairing;
        ] );
      ("properties", props);
    ]
