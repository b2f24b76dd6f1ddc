open Alpha

type target = unit -> int

type resolved_arg =
  | R_const of int
  | R_addr of (unit -> int)
  | R_regv of Reg.t
  | R_cond
  | R_effaddr

(* ldah/lda pair building sext16(hi)<<16 + sext16(lo) on top of [base]. *)
let hi_lo_pair ~base r v =
  let hi = (v + 0x8000) asr 16 in
  let lo = v - (hi lsl 16) in
  [ Insn.Mem { op = Insn.Ldah; ra = r; rb = base; disp = hi };
    Insn.Mem { op = Insn.Lda; ra = r; rb = r; disp = lo } ]

(* the pair only reaches values whose rounded-up high half fits the signed
   16-bit [ldah] displacement: that excludes (0x7FFF_7FFF, 0x7FFF_FFFF],
   where the carry from the negative [lda] half would need hi = 0x8000 *)
let hi_lo_ok v =
  let hi = (v + 0x8000) asr 16 in
  hi >= -32768 && hi <= 32767

let fits32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF && hi_lo_ok v

let sext32 v = Int64.to_int (Int64.of_int32 (Int64.to_int32 (Int64.of_int v)))

(* add sext32(v) on top of [base] (into [r]); covers the hi = 0x8000 corner
   that [hi_lo_pair] cannot encode by splitting the high half in two *)
let add_low32 ~base r v =
  if v = 0 && base = r then []
  else if v >= -32768 && v <= 32767 then
    [ Insn.Mem { op = Insn.Lda; ra = r; rb = base; disp = v } ]
  else if hi_lo_ok v then hi_lo_pair ~base r v
  else
    (* v in (0x7FFF_7FFF, 0x7FFF_FFFF]: 0x8000_0000 via two ldah *)
    [ Insn.Mem { op = Insn.Ldah; ra = r; rb = base; disp = 0x4000 };
      Insn.Mem { op = Insn.Ldah; ra = r; rb = r; disp = 0x4000 };
      Insn.Mem { op = Insn.Lda; ra = r; rb = r; disp = v - 0x8000_0000 } ]

let load_const r v =
  if v >= -32768 && v <= 32767 then
    [ Insn.Mem { op = Insn.Lda; ra = r; rb = Reg.zero; disp = v } ]
  else if v >= -0x8000_0000 && v <= 0x7FFF_FFFF then add_low32 ~base:Reg.zero r v
  else begin
    (* build the high 32 bits, shift, add the low 32; the subtraction is
       done in 64 bits — [v - low32] can overflow the host int when [v]
       is near [max_int] and [low32] is negative *)
    let low32 = sext32 v in
    let high =
      Int64.to_int
        (Int64.shift_right (Int64.sub (Int64.of_int v) (Int64.of_int low32)) 32)
    in
    (* [high] fits the pair: OCaml ints keep |high| well under 2^31 *)
    (if high >= -32768 && high <= 32767 then
       [ Insn.Mem { op = Insn.Lda; ra = r; rb = Reg.zero; disp = high } ]
     else hi_lo_pair ~base:Reg.zero r high)
    @ [ Insn.Opr { op = Insn.Sll; ra = r; rb = Insn.Imm 32; rc = r } ]
    @ add_low32 ~base:r r low32
  end

(* -- site stubs --------------------------------------------------------- *)

let needs_fp_scratch site_insn args =
  List.exists (fun a -> a = R_cond) args
  && (match site_insn with Insn.Fbr _ -> true | _ -> false)

(* registers whose values the stub must observe to compute its arguments *)
let arg_sources ~site_insn args =
  List.fold_left
    (fun acc arg ->
      match arg with
      | R_regv r -> Regset.add r acc
      | R_cond -> Regset.union acc (Insn.uses site_insn)
      | R_effaddr -> (
          match site_insn with
          | Insn.Mem { rb; _ } -> Regset.add rb acc
          | _ -> acc)
      | R_const _ | R_addr _ -> acc)
    Regset.empty args

let build_frame ~site_insn ~args ~extra_saves ~live ~needs_ra =
  let nargs = List.length args in
  (* An argument-source register only needs a slot when an earlier
     argument move can clobber it before it is read — i.e. when it is
     itself one of the argument registers a0..a<n-1>.  Every other
     source still holds its original value when its argument is
     computed, so a dead one is read directly and never spilled.
     Floating-point sources are never written by the argument moves
     (the f1 transfer scratch is force-saved separately below). *)
  let keep =
    match live with
    | None -> fun _ -> true
    | Some l ->
        let forced_sources =
          Regset.of_list
            (List.filter
               (fun r -> r >= 16 && r < 16 + nargs)
               (Regset.ints (arg_sources ~site_insn args)))
        in
        let must = Regset.union l forced_sources in
        fun r -> Regset.mem r must
  in
  let keep_f =
    match live with
    | None -> fun _ -> true
    | Some l -> fun r -> Regset.mem_f r l
  in
  let int_regs =
    let candidates =
      (if needs_ra then [ Reg.ra ] else []) @ List.init nargs (fun i -> 16 + i)
    in
    let base = List.filter keep candidates in
    let extra =
      Regset.ints extra_saves
      |> List.filter (fun r -> keep r && not (List.mem r base))
    in
    base @ extra
  in
  let fp_extra = List.filter keep_f (Regset.fps extra_saves) in
  let fp_scratch = needs_fp_scratch site_insn args in
  let fp_regs = if fp_scratch && not (List.mem 1 fp_extra) then 1 :: fp_extra else fp_extra in
  let nint = List.length int_regs in
  let nfp = List.length fp_regs in
  let scratch_needed = fp_scratch in
  let size = 8 * (nint + nfp + if scratch_needed then 1 else 0) in
  let int_slots = List.mapi (fun k r -> (r, 8 * k)) int_regs in
  let fp_slots = List.mapi (fun k r -> (r, 8 * (nint + k))) fp_regs in
  let scratch = if scratch_needed then 8 * (nint + nfp) else -1 in
  (int_slots, fp_slots, scratch, size)

let slot_of slots r = List.assoc_opt r slots

(* instructions computing argument [i] into register 16+i.  When [final]
   is false this is a sizing dry-run: late-bound addresses ([R_addr]) are
   replaced by a placeholder of identical encoded size. *)
let arg_insns ~final ~site_insn ~int_slots ~scratch ~frame_size i arg =
  let dst = 16 + i in
  let read_reg r k =
    (* produce instructions placing the *original* value of r in k *)
    if r = Reg.zero then [ Insn.Opr { op = Insn.Bis; ra = Reg.zero; rb = Insn.Reg Reg.zero; rc = k } ]
    else if r = Reg.sp then [ Insn.Mem { op = Insn.Lda; ra = k; rb = Reg.sp; disp = frame_size } ]
    else
      match slot_of int_slots r with
      | Some off -> [ Insn.Mem { op = Insn.Ldq; ra = k; rb = Reg.sp; disp = off } ]
      | None -> [ Insn.Opr { op = Insn.Bis; ra = Reg.zero; rb = Insn.Reg r; rc = k } ]
  in
  match arg with
  | R_const v -> load_const dst v
  | R_addr f ->
      let v = if final then f () else 0x10000 in
      if not (fits32 v) then failwith "Stubgen: R_addr value out of 32-bit range";
      hi_lo_pair ~base:Reg.zero dst v
  | R_regv r -> read_reg r dst
  | R_effaddr -> (
      match site_insn with
      | Insn.Mem { rb; disp; _ } ->
          if rb = Reg.sp then
            [ Insn.Mem { op = Insn.Lda; ra = dst; rb = Reg.sp; disp = disp + frame_size } ]
          else begin
            match slot_of int_slots rb with
            | Some off ->
                [ Insn.Mem { op = Insn.Ldq; ra = dst; rb = Reg.sp; disp = off };
                  Insn.Mem { op = Insn.Lda; ra = dst; rb = dst; disp } ]
            | None -> [ Insn.Mem { op = Insn.Lda; ra = dst; rb; disp } ]
          end
      | _ -> failwith "Stubgen: EffAddrValue on a non-memory instruction")
  | R_cond -> (
      match site_insn with
      | Insn.Cbr { cond; ra; _ } -> (
          let src_setup, src =
            if ra = Reg.zero then ([], Reg.zero)
            else
              match slot_of int_slots ra with
              | Some off ->
                  ([ Insn.Mem { op = Insn.Ldq; ra = dst; rb = Reg.sp; disp = off } ], dst)
              | None -> ([], ra)
          in
          let cmp op_ =
            src_setup @ [ Insn.Opr { op = op_; ra = src; rb = Insn.Imm 0; rc = dst } ]
          in
          let cmp_rev op_ =
            src_setup
            @ [ Insn.Opr { op = op_; ra = Reg.zero; rb = Insn.Reg src; rc = dst } ]
          in
          let invert = [ Insn.Opr { op = Insn.Xor; ra = dst; rb = Insn.Imm 1; rc = dst } ] in
          match cond with
          | Insn.Beq -> cmp Insn.Cmpeq
          | Insn.Bne -> cmp Insn.Cmpeq @ invert
          | Insn.Blt -> cmp Insn.Cmplt
          | Insn.Ble -> cmp Insn.Cmple
          | Insn.Bgt -> cmp_rev Insn.Cmplt
          | Insn.Bge -> cmp_rev Insn.Cmple
          | Insn.Blbs ->
              src_setup @ [ Insn.Opr { op = Insn.And_; ra = src; rb = Insn.Imm 1; rc = dst } ]
          | Insn.Blbc ->
              src_setup
              @ [ Insn.Opr { op = Insn.And_; ra = src; rb = Insn.Imm 1; rc = dst } ]
              @ invert)
      | Insn.Fbr { cond; fa; _ } ->
          let cmp op_ fa_ fb_ =
            [ Insn.Fop { op = op_; fa = fa_; fb = fb_; fc = 1 } ]
          in
          let compare =
            match cond with
            | Insn.Fbeq -> cmp Insn.Cmpteq fa Reg.fzero
            | Insn.Fbne -> cmp Insn.Cmpteq fa Reg.fzero
            | Insn.Fblt -> cmp Insn.Cmptlt fa Reg.fzero
            | Insn.Fble -> cmp Insn.Cmptle fa Reg.fzero
            | Insn.Fbgt -> cmp Insn.Cmptlt Reg.fzero fa
            | Insn.Fbge -> cmp Insn.Cmptle Reg.fzero fa
          in
          let transfer =
            [ Insn.Mem { op = Insn.Stt; ra = 1; rb = Reg.sp; disp = scratch };
              Insn.Mem { op = Insn.Ldq; ra = dst; rb = Reg.sp; disp = scratch } ]
          in
          let normalise =
            match cond with
            | Insn.Fbne ->
                (* taken when fa <> 0: invert the equality's bits *)
                [ Insn.Opr { op = Insn.Cmpeq; ra = dst; rb = Insn.Imm 0; rc = dst } ]
            | Insn.Fbeq | Insn.Fblt | Insn.Fble | Insn.Fbgt | Insn.Fbge -> []
          in
          compare @ transfer @ normalise
      | _ -> failwith "Stubgen: BrCondValue on a non-branch instruction")

type callee = Call of target | Splice of int * (unit -> Insn.t list)

let site_stub ~site_insn ~args ~extra_saves ?live ~callee () =
  let needs_ra = match callee with Call _ -> true | Splice _ -> false in
  let int_slots, fp_slots, scratch, size =
    build_frame ~site_insn ~args ~extra_saves ~live ~needs_ra
  in
  let make_prefix ~final =
    (Insn.Mem { op = Insn.Lda; ra = Reg.sp; rb = Reg.sp; disp = -size }
    :: List.map
         (fun (r, off) -> Insn.Mem { op = Insn.Stq; ra = r; rb = Reg.sp; disp = off })
         int_slots)
    @ List.map
        (fun (r, off) -> Insn.Mem { op = Insn.Stt; ra = r; rb = Reg.sp; disp = off })
        fp_slots
    @ List.concat
        (List.mapi
           (fun i arg ->
             arg_insns ~final ~site_insn ~int_slots ~scratch ~frame_size:size i arg)
           args)
  in
  let prefix = make_prefix ~final:false in
  (* built at emission rather than kept from here: a list that lives
     until codegen is promoted out of the minor heap *)
  let suffix () =
    List.map
      (fun (r, off) -> Insn.Mem { op = Insn.Ldq; ra = r; rb = Reg.sp; disp = off })
      int_slots
    @ List.map
        (fun (r, off) -> Insn.Mem { op = Insn.Ldt; ra = r; rb = Reg.sp; disp = off })
        fp_slots
    @ [ Insn.Mem { op = Insn.Lda; ra = Reg.sp; rb = Reg.sp; disp = size } ]
  in
  let npre = List.length prefix in
  let mid_len = match callee with Call _ -> 1 | Splice (n, _) -> n in
  let total = npre + mid_len + List.length (suffix ()) in
  {
    Om.Ir.s_size = 4 * total;
    s_emit =
      (fun ~pc ->
        let prefix = make_prefix ~final:true in
        let mid =
          match callee with
          | Call target ->
              let call_pc = pc + (4 * npre) in
              let disp = (target () - (call_pc + 4)) / 4 in
              if not (Code.fits_disp21 disp) then
                failwith "Stubgen: analysis call out of bsr range";
              [ Insn.Br { link = true; ra = Reg.ra; disp } ]
          | Splice (n, get) ->
              let body = get () in
              if List.length body <> n then
                failwith "Stubgen: spliced body changed size";
              body
        in
        prefix @ mid @ suffix ());
  }

(* -- wrapper routines --------------------------------------------------- *)

let wrapper ~at ~summary ~nargs ~proc_addr =
  let site_saved = Regset.of_list (Reg.ra :: List.init nargs (fun i -> 16 + i)) in
  let to_save = Regset.diff summary site_saved in
  let int_regs = Reg.ra :: Regset.ints to_save in
  let fp_regs = Regset.fps to_save in
  let nint = List.length int_regs in
  let size = 8 * (nint + List.length fp_regs) in
  let int_slots = List.mapi (fun k r -> (r, 8 * k)) int_regs in
  let fp_slots = List.mapi (fun k r -> (r, 8 * (nint + k))) fp_regs in
  let saves =
    Insn.Mem { op = Insn.Lda; ra = Reg.sp; rb = Reg.sp; disp = -size }
    :: List.map
         (fun (r, off) -> Insn.Mem { op = Insn.Stq; ra = r; rb = Reg.sp; disp = off })
         int_slots
    @ List.map
        (fun (r, off) -> Insn.Mem { op = Insn.Stt; ra = r; rb = Reg.sp; disp = off })
        fp_slots
  in
  let call_pc = at + (4 * List.length saves) in
  let disp = (proc_addr - (call_pc + 4)) / 4 in
  if not (Code.fits_disp21 disp) then failwith "Stubgen: wrapper call out of range";
  let restores =
    List.map
      (fun (r, off) -> Insn.Mem { op = Insn.Ldq; ra = r; rb = Reg.sp; disp = off })
      int_slots
    @ List.map
        (fun (r, off) -> Insn.Mem { op = Insn.Ldt; ra = r; rb = Reg.sp; disp = off })
        fp_slots
    @ [ Insn.Mem { op = Insn.Lda; ra = Reg.sp; rb = Reg.sp; disp = size };
        Insn.Jump { kind = Insn.Ret; ra = Reg.zero; rb = Reg.ra; hint = 1 } ]
  in
  saves @ (Insn.Br { link = true; ra = Reg.ra; disp } :: restores)
