(* The closure-compiled fast execution engine.

   Instead of fetching and dispatching on a decoded [Insn.t] every step
   (the reference step, {!State.step}), the engine runs OCaml closures
   translated from the code, one per basic block.  Translation is lazy,
   the way a dynamic binary translator fills its code cache: [translate]
   only allocates each segment's slot array, filled with the one stub
   that every slot of every program shares.  The stub raises its slot's
   index to the driver loop, which builds the block that starts there —
   decoding its words on first use ({!State.insn}) — writes it into the
   slot and calls it.  A run pays decoding and translation only for the
   code it executes.

   A block ([build_block]) is a straight-line run ending at a control
   transfer (or at a branched-to leader), chained across unconditional
   in-segment branches, and becomes one "turbo" closure.  Everything a
   block does to the statistics record is computed at translation time —
   instruction count, weighted cycles, load/store/call counts, and both
   variants of the dual-issue pair accounting (entered with or without a
   pairable predecessor) — and applied in one batch, after a single
   up-front fuel check.  The architectural effects run as a straight
   line of specialized closures that skip the per-step bookkeeping
   entirely.  They come from one translator ([effects]), whose loads and
   stores go through 64-entry direct-mapped page TLBs straight into the
   backing [bytes].  The registers are unboxed 8-byte slots, so
   executing translated code allocates nothing on the OCaml heap except
   in system calls, faults, the rare load or store that straddles a
   page (it goes through [Mem]'s boxed accessors) and the few operates
   the compiler never emits.
   In turbo blocks, taken branches and fall-through chains dispatch
   closure-to-closure in tail position without re-entering the fetch
   loop; only indirect jumps to other segments, cross-segment branches
   and segment exits return to the driver loop, which re-locates the PC
   exactly like the reference fetch (including its fault on a PC outside
   code).

   Code no turbo block covers takes the reference step instead.  That is
   a slot entered in the middle of a block (only a computed jump gets
   there, and such a slot keeps its stub) and a block longer than the
   remaining fuel: each sets the PC, spends one unit of fuel, takes one
   {!State.step} and returns to the driver loop, so a fuel tail stops at
   exactly the right instruction, inside a block.  A machine with a
   trace hook (which must see every instruction) or with strict
   alignment (each access checks its own address, which block batching
   could not undo cheaply) never reaches this engine: {!Sim.run} runs it
   on the reference loop.

   Each slot is translated once.  No translated closure holds a slot's
   contents by value: every dispatch — fall-through, branch target,
   computed jump — reads its slot when it is called, so once a block is
   built nothing reaches its stub again.  Every dispatch is a tail call,
   so the stub's raise abandons no work.

   Equivalence discipline: per-block batching reorders the bookkeeping
   against the architectural effects, but nothing can observe the
   difference — no trace hook runs in this engine, faults
   and syscalls only occur as block terminators (after the batch, like
   the reference's fetch-then-step), and within a straight line the pair
   accounting depends only on the entry state, which the turbo closure
   tests dynamically exactly as the reference fetch does.  The one
   exception is a load or store, which can fault mid-chain after the
   batch: the fault then rolls the batch back to the reference's state at
   the faulting instruction, recomputing from the chain what it charged
   up to there (at most once per run, so nothing is precomputed).  [t.pc] is
   written on every exit from a closure chain (fault, halt, fuel, jump,
   segment exit), so an observer never sees a stale PC.  Translation
   itself touches no machine state but the [blocks_built] counter, so
   when a block is built cannot be observed either. *)

open Alpha
open State

(* Register access for translated code.  Registers are 8-byte slots of a
   [bytes], read and written through [State]'s primitives, so inside
   these helpers a register value stays unboxed.  Dune's dev profile
   compiles with [-opaque], so a call into another module — even
   [State.sext32] — or through a closure boxes every [int64] and [float]
   it passes or returns.  The hot effects below therefore use only these
   helpers, stdlib primitives and inlined stdlib code.  [sext32] and
   [bool64] deliberately shadow [State]'s. *)
let[@inline] get regs r = get64u regs (r lsl 3)
let[@inline] set regs r v = set64u regs (r lsl 3) v
let[@inline] fget fregs r = Int64.float_of_bits (get fregs r)
let[@inline] fset fregs r x = set fregs r (Int64.bits_of_float x)
let[@inline] sext32 (v : int64) = Int64.of_int32 (Int64.to_int32 v)
let[@inline] bool64 b = if b then 1L else 0L

(* Conditional branches, for the turbo blocks' terminators.  The
   condition is inlined per constructor: the branch at the end of every
   hot block must not pay an indirect call (and a boxed operand) just to
   test a register against zero. *)
let[@inline] branch t c (taken : unit -> unit) (fall : unit -> unit) =
  t.cond_branches <- t.cond_branches + 1;
  if c then begin
    t.taken <- t.taken + 1;
    taken ()
  end
  else fall ()

let cbr t regs (cond : Insn.br_cond) ra taken fall : unit -> unit =
  match cond with
  | Beq -> fun () -> branch t (Int64.equal (get regs ra) 0L) taken fall
  | Bne -> fun () -> branch t (not (Int64.equal (get regs ra) 0L)) taken fall
  | Blt -> fun () -> branch t (Int64.compare (get regs ra) 0L < 0) taken fall
  | Ble -> fun () -> branch t (Int64.compare (get regs ra) 0L <= 0) taken fall
  | Bgt -> fun () -> branch t (Int64.compare (get regs ra) 0L > 0) taken fall
  | Bge -> fun () -> branch t (Int64.compare (get regs ra) 0L >= 0) taken fall
  | Blbc -> fun () -> branch t (Int64.logand (get regs ra) 1L = 0L) taken fall
  | Blbs -> fun () -> branch t (Int64.logand (get regs ra) 1L = 1L) taken fall

let fbr t fregs (cond : Insn.fbr_cond) fa taken fall : unit -> unit =
  match cond with
  | Fbeq -> fun () -> branch t (fget fregs fa = 0.0) taken fall
  | Fbne -> fun () -> branch t (fget fregs fa <> 0.0) taken fall
  | Fblt -> fun () -> branch t (fget fregs fa < 0.0) taken fall
  | Fble -> fun () -> branch t (fget fregs fa <= 0.0) taken fall
  | Fbgt -> fun () -> branch t (fget fregs fa > 0.0) taken fall
  | Fbge -> fun () -> branch t (fget fregs fa >= 0.0) taken fall

(* ------------------------------------------------------------------ *)
(* Block translation.                                                  *)

let is_terminator (i : Insn.t) =
  match i with
  | Br _ | Cbr _ | Fbr _ | Jump _ | Call_pal _ | Raw _ -> true
  | Mem _ | Opr _ | Fop _ -> false

(* Block leaders: the segment entry, every static branch target, and the
   instruction after each control transfer.  [mark_leaders cs k i] marks
   the ones instruction [i] at word [k] makes. *)
let mark_leaders cs k (i : Insn.t) =
  let n = Array.length cs.cs_insns in
  if k = 0 then set_flag cs 0 leader_bit;
  (match i with
  | Insn.Br { disp = d; _ }
  | Insn.Cbr { disp = d; _ }
  | Insn.Fbr { disp = d; _ } ->
      let t = k + 1 + d in
      if t >= 0 && t < n then set_flag cs t leader_bit
  | _ -> ());
  if is_terminator i && k + 1 < n then set_flag cs (k + 1) leader_bit

(* Weighted cycles of one instruction, as charged by the reference step
   (faulting instructions charge nothing: the reference raises before
   touching the cycle counter). *)
let insn_cycles (i : Insn.t) =
  let open Insn in
  match i with
  | Mem { op = Lda | Ldah; _ } -> 1
  | Mem _ -> 2
  | Opr { op = Mull | Mulq | Umulh; _ } -> 8
  | Opr _ -> 1
  | Fop { op = Divt; _ } -> 30
  | Fop { op = Cpys | Cpysn; _ } -> 1
  | Fop _ -> 4
  | Br _ | Cbr _ | Fbr _ | Jump _ -> 1
  | Call_pal 0x83 -> 10
  | Call_pal _ | Raw _ -> 0

let is_load (i : Insn.t) =
  match i with
  | Insn.Mem { op = Ldbu | Ldwu | Ldl | Ldq | Ldq_u | Ldt; _ } -> true
  | _ -> false

let is_store (i : Insn.t) =
  match i with
  | Insn.Mem { op = Stb | Stw | Stl | Stq | Stq_u | Stt; _ } -> true
  | _ -> false

(* What the first [m] positions of a chain charge: weighted cycles,
   loads, stores, merged calls (a [bsr] before the chain's last
   position), and the dual-issue pair cycles together with the pair
   state they leave, entered with a pairable predecessor pending ([p0])
   or not.  Across a merged branch the reference's PC-adjacency test is
   statically decided: the next piece is adjacent only if the branch
   targets the next word.  A block's prologue charges the whole chain;
   a mid-chain fault charges up to and including the faulting position. *)
type charge = {
  ch_cyc : int;
  ch_loads : int;
  ch_stores : int;
  ch_calls : int;
  ch_pairs : int;
  ch_pend : bool;
}

let charge (cs : code_seg) (chain : int array) m p0 =
  let last = Array.length chain - 1 in
  let cyc = ref 0 and loads = ref 0 and stores = ref 0 and calls = ref 0 in
  let pairs = ref 0 and p = ref p0 and prev = ref (-2) in
  for j = 0 to m - 1 do
    let i = chain.(j) in
    let insn = insn cs i in
    cyc := !cyc + insn_cycles insn;
    if is_load insn then incr loads;
    if is_store insn then incr stores;
    (match insn with
    | Insn.Br { link = true; _ } when j < last -> incr calls
    | _ -> ());
    if !p && (!prev = -2 || i = !prev + 1) then p := false
    else begin
      incr pairs;
      p := is_pair cs i
    end;
    prev := i
  done;
  {
    ch_cyc = !cyc;
    ch_loads = !loads;
    ch_stores = !stores;
    ch_calls = !calls;
    ch_pairs = !pairs;
    ch_pend = !p;
  }

(* Entries in each page TLB of [effects]; a power of two.  Over the
   benchmark matrix 16 entries miss on 1.8 % of accesses and 64 on
   1.3 %, the same as 256 or 1024 (EXPERIMENTS, "What the page TLB
   contributes").  The "page TLB" test derives its slot-conflict stride
   from this constant. *)
let tlb_size = 64

(* The page backing address [a], looked up in a direct-mapped TLB:
   [tags.(s)] is the page number cached in slot [s] (-1 when empty) and
   [pages.(s)] its bytes.  A miss asks [view] — [Mem.rpage] or
   [Mem.wpage] — which checks protection, the heap mark and the page
   ceiling; only a page it returns is cached. *)
let[@inline] tlb_page tags pages view mem a =
  let idx = a lsr Mem.page_bits in
  let s = idx land (tlb_size - 1) in
  if Array.unsafe_get tags s = idx then Array.unsafe_get pages s
  else begin
    let p = view mem a in
    Array.unsafe_set tags s idx;
    Array.unsafe_set pages s p;
    p
  end

(* The effect translator for machine [t].  One serves a whole
   translation, so every turbo block shares its page TLBs. *)
let effects t =
  let regs = t.regs and fregs = t.fregs and mem = t.mem in
  (* One TLB per access kind, since the protection map distinguishes
     them.  A page's backing [bytes] is created on first touch and never
     replaced, and its permissions never shrink after [Sim.start]
     installs the map, so an entry cannot go stale — not even across
     syscalls, which write through the same pages. *)
  let rtags = Array.make tlb_size (-1) and rpages = Array.make tlb_size Bytes.empty in
  let wtags = Array.make tlb_size (-1) and wpages = Array.make tlb_size Bytes.empty in
  let rpage a = tlb_page rtags rpages Mem.rpage mem a in
  let wpage a = tlb_page wtags wpages Mem.wpage mem a in
  let ps = Mem.page_size and pmask = Mem.page_mask in
  (* The architectural effect of a non-control instruction, stripped of
     all bookkeeping.  Effective addresses are computed in native [int]
     ([Int64.to_int] is truncation mod 2^63, so [to_int (add a d)] equals
     [to_int a + d] under OCaml's wrap-around — without the boxed sum).
     A load writes its destination inside each arm of its page-split
     test: a value shared by the arms would be boxed. *)
  let effect (insn : Insn.t) : (unit -> unit) option =
    let open Insn in
    match insn with
    | Mem { op = (Lda | Ldah) as op; ra; rb; disp } ->
        if ra = 31 then None
        else
          let d = Int64.of_int (if op = Lda then disp else disp * 65536) in
          Some (fun () -> set regs ra (Int64.add (get regs rb) d))
    | Mem { op = Ldbu | Ldwu | Ldl | Ldq | Ldq_u | Ldt as op; ra = 31; rb; disp }
      ->
        (* a load into [$31] still reads, because under the protection
           map the read itself is observable (it can fault) *)
        let read : int -> unit =
          match op with
          | Ldbu -> fun a -> ignore (Mem.read_u8 mem a)
          | Ldwu -> fun a -> ignore (Mem.read_u16 mem a)
          | Ldl -> fun a -> ignore (Mem.read_u32 mem a)
          | Ldq_u -> fun a -> ignore (Mem.read_u64 mem (a land lnot 7))
          | _ -> fun a -> ignore (Mem.read_u64 mem a)
        in
        Some (fun () -> read (Int64.to_int (get regs rb) + disp))
    | Mem { op; ra; rb; disp = d } ->
        Some
          (match op with
          | Ldbu ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                set regs ra
                  (Int64.of_int
                     (Char.code (Bytes.unsafe_get (rpage a) (a land pmask))))
          | Ldwu ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 2 then
                  set regs ra (Int64.of_int (Bytes.get_uint16_le (rpage a) off))
                else set regs ra (Int64.of_int (Mem.read_u16 mem a))
          | Ldl ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 4 then
                  set regs ra (Int64.of_int32 (Bytes.get_int32_le (rpage a) off))
                else set regs ra (sext32 (Int64.of_int (Mem.read_u32 mem a)))
          | Ldq ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 8 then
                  set regs ra (Bytes.get_int64_le (rpage a) off)
                else set regs ra (Mem.read_u64 mem a)
          | Ldq_u ->
              (* the aligned address never straddles a page *)
              fun () ->
                let a = (Int64.to_int (get regs rb) + d) land lnot 7 in
                set regs ra (Bytes.get_int64_le (rpage a) (a land pmask))
          | Ldt ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 8 then
                  set fregs ra (Bytes.get_int64_le (rpage a) off)
                else set fregs ra (Mem.read_u64 mem a)
          | Stb ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                Bytes.unsafe_set (wpage a) (a land pmask)
                  (Char.unsafe_chr (Int64.to_int (get regs ra) land 0xFF))
          | Stw ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                let v = Int64.to_int (get regs ra) land 0xFFFF in
                if off <= ps - 2 then Bytes.set_uint16_le (wpage a) off v
                else Mem.write_u16 mem a v
          | Stl ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 4 then
                  Bytes.set_int32_le (wpage a) off (Int64.to_int32 (get regs ra))
                else Mem.write_u32 mem a (Int64.to_int (get regs ra) land 0xFFFFFFFF)
          | Stq ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 8 then Bytes.set_int64_le (wpage a) off (get regs ra)
                else Mem.write_u64 mem a (get regs ra)
          | Stq_u ->
              fun () ->
                let a = (Int64.to_int (get regs rb) + d) land lnot 7 in
                Bytes.set_int64_le (wpage a) (a land pmask) (get regs ra)
          | Stt ->
              fun () ->
                let a = Int64.to_int (get regs rb) + d in
                let off = a land pmask in
                if off <= ps - 8 then
                  Bytes.set_int64_le (wpage a) off (get fregs ra)
                else Mem.write_u64 mem a (get fregs ra)
          | Lda | Ldah -> assert false)
    | Opr { op; ra; rb; rc } ->
        if rc = 31 then None
        else
          (* operand [b] is slot [b] of [bs]: the register file, or a slot
             of its own holding the literal, so one closure per operation
             serves both operand forms *)
          let bs, b =
            match rb with
            | Reg r -> (regs, r)
            | Imm v ->
                let lit = Bytes.create 8 in
                set lit 0 (Int64.of_int v);
                (lit, 0)
          in
          Some
            (match op with
            | Addq -> fun () -> set regs rc (Int64.add (get regs ra) (get bs b))
            | Subq -> fun () -> set regs rc (Int64.sub (get regs ra) (get bs b))
            | Addl ->
                fun () ->
                  set regs rc (sext32 (Int64.add (get regs ra) (get bs b)))
            | Subl ->
                fun () ->
                  set regs rc (sext32 (Int64.sub (get regs ra) (get bs b)))
            | S4addq ->
                fun () ->
                  set regs rc
                    (Int64.add (Int64.shift_left (get regs ra) 2) (get bs b))
            | S8addq ->
                fun () ->
                  set regs rc
                    (Int64.add (Int64.shift_left (get regs ra) 3) (get bs b))
            | Mull ->
                fun () ->
                  set regs rc (sext32 (Int64.mul (get regs ra) (get bs b)))
            | Mulq -> fun () -> set regs rc (Int64.mul (get regs ra) (get bs b))
            | Cmpeq ->
                fun () ->
                  set regs rc (bool64 (Int64.equal (get regs ra) (get bs b)))
            | Cmplt ->
                fun () ->
                  set regs rc
                    (bool64 (Int64.compare (get regs ra) (get bs b) < 0))
            | Cmple ->
                fun () ->
                  set regs rc
                    (bool64 (Int64.compare (get regs ra) (get bs b) <= 0))
            | Cmpult ->
                fun () ->
                  set regs rc
                    (bool64 (Int64.unsigned_compare (get regs ra) (get bs b) < 0))
            | Cmpule ->
                fun () ->
                  set regs rc
                    (bool64
                       (Int64.unsigned_compare (get regs ra) (get bs b) <= 0))
            | And_ ->
                fun () -> set regs rc (Int64.logand (get regs ra) (get bs b))
            | Bic ->
                fun () ->
                  set regs rc
                    (Int64.logand (get regs ra) (Int64.lognot (get bs b)))
            | Bis -> fun () -> set regs rc (Int64.logor (get regs ra) (get bs b))
            | Ornot ->
                fun () ->
                  set regs rc (Int64.logor (get regs ra) (Int64.lognot (get bs b)))
            | Xor -> fun () -> set regs rc (Int64.logxor (get regs ra) (get bs b))
            | Eqv ->
                fun () ->
                  set regs rc
                    (Int64.logxor (get regs ra) (Int64.lognot (get bs b)))
            | Sll ->
                fun () ->
                  set regs rc
                    (Int64.shift_left (get regs ra)
                       (Int64.to_int (get bs b) land 63))
            | Srl ->
                fun () ->
                  set regs rc
                    (Int64.shift_right_logical (get regs ra)
                       (Int64.to_int (get bs b) land 63))
            | Sra ->
                fun () ->
                  set regs rc
                    (Int64.shift_right (get regs ra)
                       (Int64.to_int (get bs b) land 63))
            | Cmoveq ->
                fun () ->
                  if Int64.equal (get regs ra) 0L then set regs rc (get bs b)
            | Cmovne ->
                fun () ->
                  if not (Int64.equal (get regs ra) 0L) then
                    set regs rc (get bs b)
            | Cmovlt ->
                fun () ->
                  if Int64.compare (get regs ra) 0L < 0 then set regs rc (get bs b)
            | Cmovge ->
                fun () ->
                  if Int64.compare (get regs ra) 0L >= 0 then
                    set regs rc (get bs b)
            | Cmovle ->
                fun () ->
                  if Int64.compare (get regs ra) 0L <= 0 then
                    set regs rc (get bs b)
            | Cmovgt ->
                fun () ->
                  if Int64.compare (get regs ra) 0L > 0 then set regs rc (get bs b)
            | Cmovlbs ->
                fun () ->
                  if Int64.logand (get regs ra) 1L = 1L then set regs rc (get bs b)
            | Cmovlbc ->
                fun () ->
                  if Int64.logand (get regs ra) 1L = 0L then set regs rc (get bs b)
            | Umulh | Cmpbge | Zap | Zapnot | Extbl | Extwl | Extll | Extql
            | Insbl | Inswl | Insll | Insql | Mskbl | Mskwl | Mskll | Mskql ->
                (* the compiler never emits these: the reference's
                   evaluator serves them, boxing its operands *)
                fun () -> set regs rc (eval_opr op (get regs ra) (get bs b)))
    | Fop { op; fa; fb; fc } ->
        if fc = 31 then None
        else
          Some
            (match op with
            | Addt -> fun () -> fset fregs fc (fget fregs fa +. fget fregs fb)
            | Subt -> fun () -> fset fregs fc (fget fregs fa -. fget fregs fb)
            | Mult -> fun () -> fset fregs fc (fget fregs fa *. fget fregs fb)
            | Divt -> fun () -> fset fregs fc (fget fregs fa /. fget fregs fb)
            | Cmpteq ->
                fun () ->
                  fset fregs fc
                    (if fget fregs fa = fget fregs fb then 2.0 else 0.0)
            | Cmptlt ->
                fun () ->
                  fset fregs fc
                    (if fget fregs fa < fget fregs fb then 2.0 else 0.0)
            | Cmptle ->
                fun () ->
                  fset fregs fc
                    (if fget fregs fa <= fget fregs fb then 2.0 else 0.0)
            | Cvtqt -> fun () -> fset fregs fc (Int64.to_float (get fregs fb))
            | Cvttq -> fun () -> set fregs fc (Int64.of_float (fget fregs fb))
            | Cpys ->
                fun () ->
                  set fregs fc
                    (Int64.logor
                       (Int64.logand (get fregs fa) Int64.min_int)
                       (Int64.logand (get fregs fb) Int64.max_int))
            | Cpysn ->
                fun () ->
                  set fregs fc
                    (Int64.logor
                       (Int64.logand (Int64.lognot (get fregs fa)) Int64.min_int)
                       (Int64.logand (get fregs fb) Int64.max_int)))
    | Br _ | Cbr _ | Fbr _ | Jump _ | Call_pal _ | Raw _ ->
        assert false (* control transfers terminate blocks *)
  in
  effect

(* One reference step at [pc], for code no turbo block covers: a slot
   entered in the middle of a block, or a block longer than the
   remaining fuel.  Control then returns to the driver loop, which
   enters the next PC. *)
let ref_step t pc =
  t.pc <- pc;
  if t.fuel <= 0 then raise Fuel;
  t.fuel <- t.fuel - 1;
  step t

(* A chain merges no further piece once it holds this many instructions. *)
let chain_cap = 64

(* The turbo closure for the block (superblock chain) that starts at
   leader [l] of the segment, built when the leader's stub first runs. *)
let build_block t sg l : int -> unit =
  let { fs_code = cs; fs_disp = disp; fs_effect = effect } = sg in
  let regs = t.regs and fregs = t.fregs in
  let insn_at = insn cs and base = cs.cs_base in
  let n = Array.length cs.cs_insns in
  let len4 = 4 * n in
  (* dispatch to the block starting at index [j], or exit the segment *)
  let dispatch_to j : unit -> unit =
    if j < n then fun () -> (Array.unsafe_get disp j) j
    else
      let end_pc = base + len4 in
      fun () -> t.pc <- end_pc
  in
  let goto_block target : unit -> unit =
    let off = target - base in
    if off >= 0 && off < len4 && off land 3 = 0 then dispatch_to (off lsr 2)
    else fun () -> t.pc <- target
  in
  (* a computed target: chain within the segment, else exit to the driver *)
  let[@inline] goto_computed target =
    let off = target - base in
    if off >= 0 && off < len4 && off land 3 = 0 then
      let j = off lsr 2 in
      (Array.unsafe_get disp j) j
    else t.pc <- target
  in
  (* Superblock chaining: the block runs to its control transfer,
     and keeps going through unconditional in-segment branches —
     [br] redirects and [bsr] call entries alike — so a whole
     call-plus-callee-prologue executes as one statically
     accounted chain.  [pieces] collects the straight-line index
     ranges in execution order; a piece that is not the last ends
     in a merged [Br] whose only run-time effect is its optional
     return-address write. *)
  let pieces = ref [] in
  let total = ref 0 in
  let cur = ref l in
  let stop = ref (-1) in
  (* -1 while scanning; terminator index, or [n] for a segment
     fall-off *)
  while !stop < 0 do
    let lo = !cur in
    let e = ref lo in
    while (not (is_terminator (insn_at !e))) && !e + 1 < n do
      incr e
    done;
    let e = !e in
    pieces := (lo, e) :: !pieces;
    total := !total + (e - lo + 1);
    if not (is_terminator (insn_at e)) then stop := n
    else
      match insn_at e with
      | Insn.Br { disp = d; _ } when !total < chain_cap ->
          let off = (4 * (e + 1)) + (4 * d) in
          if off >= 0 && off < len4 then cur := off lsr 2 else stop := e
      | _ -> stop := e
  done;
  let pieces = List.rev !pieces in
  let stop = !stop in
  let has_term = stop < n in
  let n_ins = !total in
  (* Flattened chain positions: chain position [j] holds instruction
     index [chain.(j)].  Every [Br] before the last position is a
     merged terminator. *)
  let chain = Array.make n_ins 0 in
  (let pos = ref 0 in
   List.iter
     (fun (lo, hi) ->
       for i = lo to hi do
         chain.(!pos) <- i;
         incr pos
       done)
     pieces);
  let e_last = chain.(n_ins - 1) in
  (* the batch, from both possible entry states *)
  let on_cont = charge cs chain n_ins true in
  let on_brk = charge cs chain n_ins false in
  let cyc = on_cont.ch_cyc and nloads = on_cont.ch_loads in
  let nstores = on_cont.ch_stores and ncalls_mid = on_cont.ch_calls in
  let pc_cont = on_cont.ch_pairs and ep_cont = on_cont.ch_pend in
  let pc_brk = on_brk.ch_pairs and ep_brk = on_brk.ch_pend in
  let base_pc = base + (4 * l) in
  let last_pc = base + (4 * e_last) in
  (* A load or store can fault mid-chain, after the whole block's
     statistics were batched.  [unwind j] rolls the batch back to the
     reference's exact state at chain position [j] — every counter
     charged through the faulting instruction inclusive (the reference
     charges before the access), nothing after it — with the pair
     accounting of the entry mode [t.block_cont] records.  It is
     computed when the fault happens, at most once per run. *)
  let unwind j =
    let all = if t.block_cont then on_cont else on_brk in
    let upto = charge cs chain (j + 1) t.block_cont in
    let d_ins = n_ins - (j + 1) in
    t.insns <- t.insns - d_ins;
    t.fuel <- t.fuel + d_ins;
    t.cycles <- t.cycles - (all.ch_cyc - upto.ch_cyc);
    t.loads <- t.loads - (all.ch_loads - upto.ch_loads);
    t.stores <- t.stores - (all.ch_stores - upto.ch_stores);
    t.calls <- t.calls - (all.ch_calls - upto.ch_calls);
    t.pair_cycles <- t.pair_cycles - (all.ch_pairs - upto.ch_pairs);
    t.pending_pair <- upto.ch_pend;
    let pc = base + (4 * chain.(j)) in
    t.prev_pc <- pc;
    t.pc <- pc;
    pc
  in
  let guard j (eff : unit -> unit) : unit -> unit =
   fun () ->
    try eff () with
    | Mem.Prot { addr; access } ->
        let pc = unwind j in
        raise (Faulted (Fault.Segv { addr; access; pc }))
    | Mem.Limit { limit; _ } ->
        let pc = unwind j in
        raise (Faulted (Fault.Mem_limit { limit; pc }))
  in
  (* the chain's architectural effects, in program order; the
     terminator's effect lives in [term] *)
  let effs =
    List.filter_map
      (fun j ->
        let i = chain.(j) in
        match insn_at i with
        | Insn.Br { ra; _ } ->
            (* a merged branch leaves only its optional link write (its
               call count is batched into the prologue) *)
            if ra = 31 then None
            else
              let nxt64 = Int64.of_int (base + (4 * (i + 1))) in
              Some (fun () -> set regs ra nxt64)
        | Insn.Mem { op = Lda | Ldah; _ } -> effect (insn_at i)
        | Insn.Mem _ -> Option.map (guard j) (effect (insn_at i))
        | _ -> effect (insn_at i))
      (List.init (if has_term then n_ins - 1 else n_ins) Fun.id)
  in
  let term : unit -> unit =
    if not has_term then dispatch_to (e_last + 1)
    else begin
      let e = stop in
      let pc = base + (4 * e) in
      let next = pc + 4 in
      match insn_at e with
      | Insn.Br { link; ra; disp = d } ->
          let jump = goto_block (next + (4 * d)) in
          let nxt64 = Int64.of_int next in
          if link then
            if ra = 31 then fun () ->
              t.calls <- t.calls + 1;
              jump ()
            else fun () ->
              t.calls <- t.calls + 1;
              set regs ra nxt64;
              jump ()
          else if ra = 31 then jump
          else fun () ->
            set regs ra nxt64;
            jump ()
      | Insn.Cbr { cond; ra; disp = d } ->
          cbr t regs cond ra (goto_block (next + (4 * d))) (dispatch_to (e + 1))
      | Insn.Fbr { cond; fa; disp = d } ->
          fbr t fregs cond fa (goto_block (next + (4 * d))) (dispatch_to (e + 1))
      | Insn.Jump { kind; ra; rb; _ } -> (
          let nxt64 = Int64.of_int next in
          (* specialized per (call?, links?) so the hot return path
             — plain [ret] with ra = 31 — is branch-free; [rb] is read
             before [ra] is written, since they may coincide *)
          match (kind = Insn.Jsr, ra <> 31) with
          | false, false ->
              fun () -> goto_computed (Int64.to_int (get regs rb) land lnot 3)
          | false, true ->
              fun () ->
                let target = Int64.to_int (get regs rb) land lnot 3 in
                set regs ra nxt64;
                goto_computed target
          | true, false ->
              fun () ->
                t.calls <- t.calls + 1;
                goto_computed (Int64.to_int (get regs rb) land lnot 3)
          | true, true ->
              fun () ->
                t.calls <- t.calls + 1;
                let target = Int64.to_int (get regs rb) land lnot 3 in
                set regs ra nxt64;
                goto_computed target)
      | Insn.Call_pal 0x83 ->
          let fall = dispatch_to (e + 1) in
          fun () ->
            t.pc <- pc;
            syscall t;
            fall ()
      | Insn.Call_pal p ->
          fun () ->
            t.pc <- pc;
            raise (Faulted (Fault.Bad_pal { num = p; pc }))
      | Insn.Raw w ->
          fun () ->
            t.pc <- pc;
            raise (Faulted (Fault.Illegal_insn { word = w; pc }))
      | _ -> assert false
    end
  in
  (* straight-line run of effects in front of a continuation,
     fully unrolled in groups of eight.  Unrolling matters beyond
     code size: every effect position gets its own call site, so
     the host's indirect-branch predictor learns each target —
     a single looped call site flip-flops between targets and
     mispredicts on nearly every effect. *)
  let rec seq (effs : (unit -> unit) list) (tail : unit -> unit) :
      unit -> unit =
    match effs with
    | [] -> tail
    | [ e1 ] ->
        fun () ->
          e1 ();
          tail ()
    | [ e1; e2 ] ->
        fun () ->
          e1 ();
          e2 ();
          tail ()
    | [ e1; e2; e3 ] ->
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          tail ()
    | [ e1; e2; e3; e4 ] ->
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          e4 ();
          tail ()
    | [ e1; e2; e3; e4; e5 ] ->
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          e4 ();
          e5 ();
          tail ()
    | [ e1; e2; e3; e4; e5; e6 ] ->
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          e4 ();
          e5 ();
          e6 ();
          tail ()
    | [ e1; e2; e3; e4; e5; e6; e7 ] ->
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          e4 ();
          e5 ();
          e6 ();
          e7 ();
          tail ()
    | e1 :: e2 :: e3 :: e4 :: e5 :: e6 :: e7 :: e8 :: rest ->
        let tl = seq rest tail in
        fun () ->
          e1 ();
          e2 ();
          e3 ();
          e4 ();
          e5 ();
          e6 ();
          e7 ();
          e8 ();
          tl ()
  in
  let body = seq effs term in
  if nloads = 0 && nstores = 0 && ncalls_mid = 0 then fun _ ->
    if t.fuel < n_ins then ref_step t base_pc
    else begin
      t.fuel <- t.fuel - n_ins;
      if t.pending_pair && base_pc = t.prev_pc + 4 then begin
        t.block_cont <- true;
        t.pair_cycles <- t.pair_cycles + pc_cont;
        t.pending_pair <- ep_cont
      end
      else begin
        t.block_cont <- false;
        t.pair_cycles <- t.pair_cycles + pc_brk;
        t.pending_pair <- ep_brk
      end;
      t.prev_pc <- last_pc;
      t.insns <- t.insns + n_ins;
      t.cycles <- t.cycles + cyc;
      body ()
    end
  else fun _ ->
    if t.fuel < n_ins then ref_step t base_pc
    else begin
      t.fuel <- t.fuel - n_ins;
      if t.pending_pair && base_pc = t.prev_pc + 4 then begin
        t.block_cont <- true;
        t.pair_cycles <- t.pair_cycles + pc_cont;
        t.pending_pair <- ep_cont
      end
      else begin
        t.block_cont <- false;
        t.pair_cycles <- t.pair_cycles + pc_brk;
        t.pending_pair <- ep_brk
      end;
      t.prev_pc <- last_pc;
      t.insns <- t.insns + n_ins;
      t.cycles <- t.cycles + cyc;
      t.loads <- t.loads + nloads;
      t.stores <- t.stores + nstores;
      t.calls <- t.calls + ncalls_mid;
      body ()
    end

(* The slot stub, shared by every slot of every program.  It is not a
   closure over anything, so filling a slot array with it costs no write
   barrier.  It raises its slot's index to the driver loop, which builds
   the block at a leader and calls it, and takes a reference step
   anywhere else.  Every dispatch is a tail call, so the raise abandons
   no work: the translation continues exactly where the stub was
   called. *)
exception Untranslated of int

let stub k = raise_notrace (Untranslated k)

(* Set up the machine's translation: nothing is translated here, and
   every slot starts as the stub. *)
let translate t =
  let effect = effects t in
  List.map
    (fun cs ->
      let disp = Array.make (Array.length cs.cs_insns) stub in
      { fs_code = cs; fs_disp = disp; fs_effect = effect })
    t.code

let run ~max_insns t =
  (match t.fast with [] -> t.fast <- translate t | _ :: _ -> ());
  let segs = t.fast in
  (* call slot [k] of [sg]; a leader's stub the call reaches gets its
     block built here, any other takes a reference step *)
  let rec call sg (f : int -> unit) k =
    match f k with
    | () -> ()
    | exception Untranslated j ->
        if is_leader sg.fs_code j then begin
          let b = build_block t sg j in
          t.blocks_built <- t.blocks_built + 1;
          sg.fs_disp.(j) <- b;
          call sg b j
        end
        else ref_step t (sg.fs_code.cs_base + (4 * j))
  in
  (* run the slot that holds [pc], as the reference fetch locates it *)
  let rec enter pc = function
    | [] -> raise (Faulted (Fault.Bad_pc { pc }))
    | sg :: rest ->
        let off = pc - sg.fs_code.cs_base in
        if off >= 0 && off < 4 * Array.length sg.fs_disp && off land 3 = 0 then
          let k = off lsr 2 in
          call sg (Array.unsafe_get sg.fs_disp k) k
        else enter pc rest
  in
  t.fuel <- max_insns;
  let rec loop () =
    if t.fuel <= 0 then raise Fuel;
    enter t.pc segs;
    loop ()
  in
  try loop () with
  | Halted code -> Exit code
  | Faulted f -> Fault f
  | Fuel -> Out_of_fuel
  (* from a reference step; every translated access converts these
     itself *)
  | Mem.Prot { addr; access } -> Fault (Fault.Segv { addr; access; pc = t.pc })
  | Mem.Limit { limit; _ } -> Fault (Fault.Mem_limit { limit; pc = t.pc })
