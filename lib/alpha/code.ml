open Insn

(* Opcode and function-code tables from the Alpha Architecture Reference
   Manual.  Integer operates live under four major opcodes (INTA 0x10,
   INTL 0x11, INTS 0x12, INTM 0x13) with a 7-bit function field; floating
   operates under FLTI 0x16 / FLTL 0x17 with an 11-bit function field. *)

let mem_opcode = function
  | Lda -> 0x08 | Ldah -> 0x09 | Ldbu -> 0x0A | Ldq_u -> 0x0B
  | Ldwu -> 0x0C | Stw -> 0x0D | Stb -> 0x0E | Stq_u -> 0x0F
  | Ldt -> 0x23 | Stt -> 0x27
  | Ldl -> 0x28 | Ldq -> 0x29 | Stl -> 0x2C | Stq -> 0x2D

let mem_of_opcode = function
  | 0x08 -> Some Lda | 0x09 -> Some Ldah | 0x0A -> Some Ldbu | 0x0B -> Some Ldq_u
  | 0x0C -> Some Ldwu | 0x0D -> Some Stw | 0x0E -> Some Stb | 0x0F -> Some Stq_u
  | 0x23 -> Some Ldt | 0x27 -> Some Stt
  | 0x28 -> Some Ldl | 0x29 -> Some Ldq | 0x2C -> Some Stl | 0x2D -> Some Stq
  | _ -> None

let opr_codes = function
  | Addl -> (0x10, 0x00) | Subl -> (0x10, 0x09) | Cmpbge -> (0x10, 0x0F)
  | Cmpult -> (0x10, 0x1D) | Addq -> (0x10, 0x20) | S4addq -> (0x10, 0x22)
  | Subq -> (0x10, 0x29) | Cmpeq -> (0x10, 0x2D) | S8addq -> (0x10, 0x32)
  | Cmpule -> (0x10, 0x3D) | Cmplt -> (0x10, 0x4D) | Cmple -> (0x10, 0x6D)
  | And_ -> (0x11, 0x00) | Bic -> (0x11, 0x08) | Cmovlbs -> (0x11, 0x14)
  | Cmovlbc -> (0x11, 0x16) | Bis -> (0x11, 0x20) | Cmoveq -> (0x11, 0x24)
  | Cmovne -> (0x11, 0x26) | Ornot -> (0x11, 0x28) | Xor -> (0x11, 0x40)
  | Cmovlt -> (0x11, 0x44) | Cmovge -> (0x11, 0x46) | Eqv -> (0x11, 0x48)
  | Cmovle -> (0x11, 0x64) | Cmovgt -> (0x11, 0x66)
  | Mskbl -> (0x12, 0x02) | Extbl -> (0x12, 0x06) | Insbl -> (0x12, 0x0B)
  | Mskwl -> (0x12, 0x12) | Extwl -> (0x12, 0x16) | Inswl -> (0x12, 0x1B)
  | Mskll -> (0x12, 0x22) | Extll -> (0x12, 0x26) | Insll -> (0x12, 0x2B)
  | Zap -> (0x12, 0x30) | Zapnot -> (0x12, 0x31) | Mskql -> (0x12, 0x32)
  | Srl -> (0x12, 0x34) | Extql -> (0x12, 0x36) | Sll -> (0x12, 0x39)
  | Insql -> (0x12, 0x3B) | Sra -> (0x12, 0x3C)
  | Mull -> (0x13, 0x00) | Mulq -> (0x13, 0x20) | Umulh -> (0x13, 0x30)

(* Decode tables indexed directly by the function code: one 128-entry
   row per integer-operate opcode, [(opc - 0x10) * 128 + func]. *)
let opr_table =
  let t = Array.make (4 * 128) None in
  List.iter
    (fun op ->
      let opc, func = opr_codes op in
      t.(((opc - 0x10) lsl 7) lor func) <- Some op)
    all_opr_ops;
  t

let fop_codes = function
  | Addt -> (0x16, 0x0A0) | Subt -> (0x16, 0x0A1) | Mult -> (0x16, 0x0A2)
  | Divt -> (0x16, 0x0A3) | Cmpteq -> (0x16, 0x0A5) | Cmptlt -> (0x16, 0x0A6)
  | Cmptle -> (0x16, 0x0A7) | Cvttq -> (0x16, 0x0AF) | Cvtqt -> (0x16, 0x0BE)
  | Cpys -> (0x17, 0x020) | Cpysn -> (0x17, 0x021)

(* one 2,048-entry row per floating-operate opcode,
   [(opc - 0x16) * 2048 + func] *)
let fop_table =
  let t = Array.make (2 * 2048) None in
  List.iter
    (fun op ->
      let opc, func = fop_codes op in
      t.(((opc - 0x16) lsl 11) lor func) <- Some op)
    all_fop_ops;
  t

let cbr_opcode = function
  | Blbc -> 0x38 | Beq -> 0x39 | Blt -> 0x3A | Ble -> 0x3B
  | Blbs -> 0x3C | Bne -> 0x3D | Bge -> 0x3E | Bgt -> 0x3F

let cbr_of_opcode = function
  | 0x38 -> Some Blbc | 0x39 -> Some Beq | 0x3A -> Some Blt | 0x3B -> Some Ble
  | 0x3C -> Some Blbs | 0x3D -> Some Bne | 0x3E -> Some Bge | 0x3F -> Some Bgt
  | _ -> None

let fbr_opcode = function
  | Fbeq -> 0x31 | Fblt -> 0x32 | Fble -> 0x33
  | Fbne -> 0x35 | Fbge -> 0x36 | Fbgt -> 0x37

let fbr_of_opcode = function
  | 0x31 -> Some Fbeq | 0x32 -> Some Fblt | 0x33 -> Some Fble
  | 0x35 -> Some Fbne | 0x36 -> Some Fbge | 0x37 -> Some Fbgt
  | _ -> None

let jmp_code = function
  | Jmp -> 0 | Jsr -> 1 | Ret -> 2 | Jsr_coroutine -> 3

let jmp_of_code = function
  | 0 -> Jmp | 1 -> Jsr | 2 -> Ret | _ -> Jsr_coroutine

let mask32 = 0xFFFFFFFF

let fits_disp16 d = d >= -32768 && d <= 32767
let fits_disp21 d = d >= -(1 lsl 20) && d <= (1 lsl 20) - 1

let check_reg what r =
  if r < 0 || r > 31 then invalid_arg (Printf.sprintf "Code.encode: %s register %d" what r)

let encode i =
  match i with
  | Mem { op; ra; rb; disp } ->
      check_reg "ra" ra;
      check_reg "rb" rb;
      if not (fits_disp16 disp) then
        invalid_arg (Printf.sprintf "Code.encode: memory displacement %d" disp);
      (mem_opcode op lsl 26) lor (ra lsl 21) lor (rb lsl 16) lor (disp land 0xFFFF)
  | Opr { op; ra; rb; rc } ->
      check_reg "ra" ra;
      check_reg "rc" rc;
      let opc, func = opr_codes op in
      let mid =
        match rb with
        | Reg r ->
            check_reg "rb" r;
            r lsl 16
        | Imm n ->
            if n < 0 || n > 255 then
              invalid_arg (Printf.sprintf "Code.encode: literal %d" n);
            (n lsl 13) lor (1 lsl 12)
      in
      (opc lsl 26) lor (ra lsl 21) lor mid lor (func lsl 5) lor rc
  | Fop { op; fa; fb; fc } ->
      check_reg "fa" fa;
      check_reg "fb" fb;
      check_reg "fc" fc;
      let opc, func = fop_codes op in
      (opc lsl 26) lor (fa lsl 21) lor (fb lsl 16) lor (func lsl 5) lor fc
  | Br { link; ra; disp } ->
      check_reg "ra" ra;
      if not (fits_disp21 disp) then
        invalid_arg (Printf.sprintf "Code.encode: branch displacement %d" disp);
      let opc = if link then 0x34 else 0x30 in
      (opc lsl 26) lor (ra lsl 21) lor (disp land 0x1FFFFF)
  | Cbr { cond; ra; disp } ->
      check_reg "ra" ra;
      if not (fits_disp21 disp) then
        invalid_arg (Printf.sprintf "Code.encode: branch displacement %d" disp);
      (cbr_opcode cond lsl 26) lor (ra lsl 21) lor (disp land 0x1FFFFF)
  | Fbr { cond; fa; disp } ->
      check_reg "fa" fa;
      if not (fits_disp21 disp) then
        invalid_arg (Printf.sprintf "Code.encode: branch displacement %d" disp);
      (fbr_opcode cond lsl 26) lor (fa lsl 21) lor (disp land 0x1FFFFF)
  | Jump { kind; ra; rb; hint } ->
      check_reg "ra" ra;
      check_reg "rb" rb;
      (0x1A lsl 26) lor (ra lsl 21) lor (rb lsl 16) lor (jmp_code kind lsl 14)
      lor (hint land 0x3FFF)
  | Call_pal n ->
      if n < 0 || n > 0x3FFFFFF then invalid_arg "Code.encode: PAL code";
      n
  | Raw w -> w land mask32

let sext width v =
  let sign = 1 lsl (width - 1) in
  if v land sign <> 0 then v - (1 lsl width) else v

let decode w =
  let w = w land mask32 in
  let opc = w lsr 26 in
  let ra = (w lsr 21) land 0x1F in
  let rb = (w lsr 16) land 0x1F in
  match opc with
  | 0x00 -> Call_pal (w land 0x3FFFFFF)
  | 0x30 -> Br { link = false; ra; disp = sext 21 (w land 0x1FFFFF) }
  | 0x34 -> Br { link = true; ra; disp = sext 21 (w land 0x1FFFFF) }
  | 0x1A ->
      Jump { kind = jmp_of_code ((w lsr 14) land 3); ra; rb; hint = w land 0x3FFF }
  | 0x10 | 0x11 | 0x12 | 0x13 -> (
      let rc = w land 0x1F in
      match opr_table.(((opc - 0x10) lsl 7) lor ((w lsr 5) land 0x7F)) with
      | None -> Raw w
      | Some op ->
          let rb_operand =
            if w land (1 lsl 12) <> 0 then Imm ((w lsr 13) land 0xFF) else Reg rb
          in
          Opr { op; ra; rb = rb_operand; rc })
  | 0x16 | 0x17 -> (
      match fop_table.(((opc - 0x16) lsl 11) lor ((w lsr 5) land 0x7FF)) with
      | None -> Raw w
      | Some op -> Fop { op; fa = ra; fb = rb; fc = w land 0x1F })
  | _ -> (
      match mem_of_opcode opc with
      | Some op -> Mem { op; ra; rb; disp = sext 16 (w land 0xFFFF) }
      | None -> (
          match cbr_of_opcode opc with
          | Some cond -> Cbr { cond; ra; disp = sext 21 (w land 0x1FFFFF) }
          | None -> (
              match fbr_of_opcode opc with
              | Some cond -> Fbr { cond; fa = ra; disp = sext 21 (w land 0x1FFFFF) }
              | None -> Raw w)))

let roundtrips w = encode (decode w) = w land mask32

(* Decode memo for Om.Build: instruction words repeat heavily across an
   image, so each distinct word is decoded once and every instruction
   with that word shares one Insn.t value (immutable, so sharing is
   safe) — including in the IR the toolchain cache keeps.  The table is
   domain-local: worker domains of a serving process each memoize
   independently rather than racing on (or locking around) one hash
   table in the decode hot path. *)
let memo_key : (int, Insn.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let decode_cached w =
  let w = w land mask32 in
  let memo = Domain.DLS.get memo_key in
  match Hashtbl.find_opt memo w with
  | Some i -> i
  | None ->
      let i = decode w in
      Hashtbl.add memo w i;
      i

let read_word b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let write_word b off w =
  Bytes.set b off (Char.chr (w land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((w lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((w lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((w lsr 24) land 0xFF))

let decode_at b off = decode (read_word b off)
let decode_at_cached b off = decode_cached (read_word b off)
let encode_at b off i = write_word b off (encode i)
