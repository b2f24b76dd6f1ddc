open Alpha

type code_seg = {
  cs_base : int;
  cs_words : bytes;  (* the segment's bytes, as the executable holds them *)
  cs_insns : Insn.t array;
      (* cs_insns.(i): instruction i, decoded on first use; [undecoded]
         until then *)
  cs_flags : bytes;
      (* per instruction: [pair_bit] when it sits on an even word
         boundary, may dual-issue with instruction i+1 (21064
         aligned-pair rule) and i+1 does not consume a result of it;
         [leader_bit] when it starts a basic block, where the fast engine
         builds a turbo block on first entry *)
}

let undecoded = Insn.Raw (-1)
let pair_bit = 1
let leader_bit = 2

let insn cs k =
  let i = Array.unsafe_get cs.cs_insns k in
  if i != undecoded then i
  else begin
    (* a racing domain may decode the same word: both store equal,
       immutable values, so either store may win *)
    let i = Code.decode_at cs.cs_words (4 * k) in
    Array.unsafe_set cs.cs_insns k i;
    i
  end

let flag cs k bit = Char.code (Bytes.unsafe_get cs.cs_flags k) land bit <> 0

let set_flag cs k bit =
  Bytes.unsafe_set cs.cs_flags k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get cs.cs_flags k) lor bit))

let is_pair cs k = flag cs k pair_bit
let is_leader cs k = flag cs k leader_bit

(* A code segment as {!Exec} translates it: a slot array indexed like
   [cs_insns], each slot called with its own index, and the machine's
   effect translator. *)
type fast_seg = {
  fs_code : code_seg;
  fs_disp : (int -> unit) array;
  fs_effect : Insn.t -> (unit -> unit) option;
}

type stats = {
  st_insns : int;
  st_cycles : int;
  st_pair_cycles : int;
  st_loads : int;
  st_stores : int;
  st_cond_branches : int;
  st_taken : int;
  st_calls : int;
  st_syscalls : int;
}

type engine = Ref | Fast

type t = {
  mem : Mem.t;
  regs : bytes;  (** 32 8-byte slots; slot 31 is never written *)
  fregs : bytes;
  mutable pc : int;
  code : code_seg list;
  engine : engine;
  mutable fast : fast_seg list;  (** lazily built by {!Exec} *)
  mutable blocks_built : int;
      (** fast-engine counter: turbo blocks built so far, on first entry *)
  vfs : Vfs.t;
  mutable brk : int;
  brk0 : int;  (** initial program break: [brk] may never shrink below *)
  mutable brk_max : int;  (** address-space ceiling for [brk] requests *)
  mutable strict_align : bool;
  mutable block_cont : bool;
      (** fast-engine scratch: whether the current turbo block entered
          with a pairable predecessor pending (selects which statically
          simulated pair accounting a mid-block fault must unwind) *)
  mutable insns : int;
  mutable fuel : int;  (** remaining budget, maintained by the fast engine *)
  mutable cycles : int;
  mutable pair_cycles : int;
  mutable prev_pc : int;
  mutable pending_pair : bool;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable taken : int;
  mutable calls : int;
  mutable syscalls : int;
  mutable trace : (int -> Insn.t -> unit) option;
}

type outcome = Exit of int | Fault of Fault.t | Out_of_fuel

let sys_exit = 1
let sys_read = 3
let sys_write = 4
let sys_close = 6
let sys_brk = 17
let sys_open = 45

exception Halted of int
exception Faulted of Fault.t
exception Fuel

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let getr t r = if r = 31 then 0L else get64u t.regs (r lsl 3)
let setr t r v = if r <> 31 then set64u t.regs (r lsl 3) v
let getf t r = if r = 31 then 0L else get64u t.fregs (r lsl 3)
let setf t r v = if r <> 31 then set64u t.fregs (r lsl 3) v
let getfv t r = Int64.float_of_bits (getf t r)
let setfv t r v = setf t r (Int64.bits_of_float v)

let sext32 (v : int64) = Int64.of_int32 (Int64.to_int32 v)

let umulh a b =
  (* high 64 bits of the unsigned 128-bit product *)
  let mask = 0xFFFFFFFFL in
  let al = Int64.logand a mask and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let carry =
    let mid =
      Int64.add
        (Int64.add (Int64.logand lh mask) (Int64.logand hl mask))
        (Int64.shift_right_logical ll 32)
    in
    Int64.shift_right_logical mid 32
  in
  Int64.add
    (Int64.add hh (Int64.shift_right_logical lh 32))
    (Int64.add (Int64.shift_right_logical hl 32) carry)

let cmpbge a b =
  let r = ref 0 in
  for i = 0 to 7 do
    let ab = Int64.to_int (Int64.logand (Int64.shift_right_logical a (8 * i)) 0xFFL) in
    let bb = Int64.to_int (Int64.logand (Int64.shift_right_logical b (8 * i)) 0xFFL) in
    if ab >= bb then r := !r lor (1 lsl i)
  done;
  Int64.of_int !r

let zap_bytes v mask_byte ~keep =
  let r = ref 0L in
  for i = 0 to 7 do
    let selected = mask_byte land (1 lsl i) <> 0 in
    if selected = keep then
      r :=
        Int64.logor !r
          (Int64.logand (Int64.shift_left 0xFFL (8 * i))
             v)
  done;
  !r

let byte_mask = function
  | 1 -> 0xFFL
  | 2 -> 0xFFFFL
  | 4 -> 0xFFFFFFFFL
  | _ -> -1L

let bool64 b = if b then 1L else 0L

let u_lt a b =
  (* unsigned 64-bit comparison *)
  Int64.unsigned_compare a b < 0

let eval_opr op a b =
  let open Insn in
  match op with
  | Addq -> Int64.add a b
  | Subq -> Int64.sub a b
  | Addl -> sext32 (Int64.add a b)
  | Subl -> sext32 (Int64.sub a b)
  | S4addq -> Int64.add (Int64.shift_left a 2) b
  | S8addq -> Int64.add (Int64.shift_left a 3) b
  | Mull -> sext32 (Int64.mul a b)
  | Mulq -> Int64.mul a b
  | Umulh -> umulh a b
  | Cmpeq -> bool64 (Int64.equal a b)
  | Cmplt -> bool64 (Int64.compare a b < 0)
  | Cmple -> bool64 (Int64.compare a b <= 0)
  | Cmpult -> bool64 (u_lt a b)
  | Cmpule -> bool64 (not (u_lt b a))
  | Cmpbge -> cmpbge a b
  | And_ -> Int64.logand a b
  | Bic -> Int64.logand a (Int64.lognot b)
  | Bis -> Int64.logor a b
  | Ornot -> Int64.logor a (Int64.lognot b)
  | Xor -> Int64.logxor a b
  | Eqv -> Int64.logxor a (Int64.lognot b)
  | Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Zap -> zap_bytes a (Int64.to_int b land 0xFF) ~keep:false
  | Zapnot -> zap_bytes a (Int64.to_int b land 0xFF) ~keep:true
  | Extbl | Extwl | Extll | Extql ->
      let bytes = match op with Extbl -> 1 | Extwl -> 2 | Extll -> 4 | _ -> 8 in
      let sh = 8 * (Int64.to_int b land 7) in
      Int64.logand (Int64.shift_right_logical a sh) (byte_mask bytes)
  | Insbl | Inswl | Insll | Insql ->
      let bytes = match op with Insbl -> 1 | Inswl -> 2 | Insll -> 4 | _ -> 8 in
      let sh = 8 * (Int64.to_int b land 7) in
      Int64.shift_left (Int64.logand a (byte_mask bytes)) sh
  | Mskbl | Mskwl | Mskll | Mskql ->
      let bytes = match op with Mskbl -> 1 | Mskwl -> 2 | Mskll -> 4 | _ -> 8 in
      let sh = 8 * (Int64.to_int b land 7) in
      Int64.logand a (Int64.lognot (Int64.shift_left (byte_mask bytes) sh))
  | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc ->
      (* handled by the caller, which needs the old rc *)
      assert false

let cmov_cond op (a : int64) =
  let open Insn in
  match op with
  | Cmoveq -> Int64.equal a 0L
  | Cmovne -> not (Int64.equal a 0L)
  | Cmovlt -> Int64.compare a 0L < 0
  | Cmovge -> Int64.compare a 0L >= 0
  | Cmovle -> Int64.compare a 0L <= 0
  | Cmovgt -> Int64.compare a 0L > 0
  | Cmovlbs -> Int64.logand a 1L = 1L
  | Cmovlbc -> Int64.logand a 1L = 0L
  | _ -> assert false

let is_cmov op =
  let open Insn in
  match op with
  | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc -> true
  | _ -> false

let br_taken cond (a : int64) =
  let open Insn in
  match cond with
  | Beq -> Int64.equal a 0L
  | Bne -> not (Int64.equal a 0L)
  | Blt -> Int64.compare a 0L < 0
  | Ble -> Int64.compare a 0L <= 0
  | Bgt -> Int64.compare a 0L > 0
  | Bge -> Int64.compare a 0L >= 0
  | Blbc -> Int64.logand a 1L = 0L
  | Blbs -> Int64.logand a 1L = 1L

let fbr_taken cond (x : float) =
  let open Insn in
  match cond with
  | Fbeq -> x = 0.0
  | Fbne -> x <> 0.0
  | Fblt -> x < 0.0
  | Fble -> x <= 0.0
  | Fbgt -> x > 0.0
  | Fbge -> x >= 0.0

(* The access kind and natural alignment of a memory-format opcode, for
   fault reporting and the strict-align mode.  [Ldq_u]/[Stq_u] align
   their own address; [Lda]/[Ldah] never touch memory. *)
let mem_access_info (op : Insn.mem_op) : Fault.access * int =
  match op with
  | Insn.Ldbu -> (Fault.Load, 1)
  | Insn.Ldwu -> (Fault.Load, 2)
  | Insn.Ldl -> (Fault.Load, 4)
  | Insn.Ldq | Insn.Ldt -> (Fault.Load, 8)
  | Insn.Ldq_u -> (Fault.Load, 1)
  | Insn.Stb -> (Fault.Store, 1)
  | Insn.Stw -> (Fault.Store, 2)
  | Insn.Stl -> (Fault.Store, 4)
  | Insn.Stq | Insn.Stt -> (Fault.Store, 8)
  | Insn.Stq_u -> (Fault.Store, 1)
  | Insn.Lda | Insn.Ldah -> (Fault.Load, 1)

let syscall_body t =
  t.syscalls <- t.syscalls + 1;
  let num = Int64.to_int (getr t Reg.v0) in
  let a0 = getr t 16 and a1 = getr t 17 and a2 = getr t 18 in
  let ret v =
    setr t Reg.v0 (Int64.of_int v);
    setr t 19 (if v < 0 then 1L else 0L)
  in
  match num with
  | n when n = sys_exit -> raise (Halted (Int64.to_int a0 land 0xFF))
  | n when n = sys_write ->
      let fd = Int64.to_int a0 and addr = Int64.to_int a1 and len = Int64.to_int a2 in
      if len < 0 || len > 1 lsl 26 then ret (-1)
      else
        let s = Bytes.to_string (Mem.read_block t.mem addr len) in
        ret (Vfs.sys_write t.vfs fd s)
  | n when n = sys_read ->
      let fd = Int64.to_int a0 and addr = Int64.to_int a1 and len = Int64.to_int a2 in
      if len < 0 || len > 1 lsl 26 then ret (-1)
      else begin
        let buf = Bytes.create len in
        let got = Vfs.sys_read t.vfs fd buf in
        if got > 0 then Mem.write_bytes t.mem addr (Bytes.sub buf 0 got);
        ret got
      end
  | n when n = sys_open ->
      let path = Mem.read_cstring t.mem (Int64.to_int a0) in
      ret (Vfs.sys_open t.vfs path (Int64.to_int a1))
  | n when n = sys_close -> ret (Vfs.sys_close t.vfs (Int64.to_int a0))
  | n when n = sys_brk ->
      (* OSF/1-style validation: the break may move anywhere between its
         initial value and the address-space ceiling; anything else —
         negative, inside text, absurdly large — is refused with -1 and
         the break left untouched *)
      let want = Int64.to_int a0 in
      if want = 0 then ret t.brk
      else if want < t.brk0 || want > t.brk_max then ret (-1)
      else begin
        t.brk <- want;
        Mem.grow_heap t.mem want;
        ret want
      end
  | n -> raise (Faulted (Fault.Unknown_syscall { num = n; pc = t.pc }))

(* Both engines keep [t.pc] at the [call_pal] instruction while the
   system call runs, so a memory fault raised by a syscall touching the
   program's buffers converts identically under ref and fast. *)
let syscall t =
  try syscall_body t with
  | Mem.Prot { addr; access } ->
      raise (Faulted (Fault.Segv { addr; access; pc = t.pc }))
  | Mem.Limit { limit; _ } ->
      raise (Faulted (Fault.Mem_limit { limit; pc = t.pc }))

(* The reference step: fetch the instruction at [t.pc], then charge and
   execute it.  {!Sim}'s reference loop runs on it alone, and the fast
   engine takes it for the code no turbo block covers. *)
let fetch t pc =
  let rec go = function
    | [] -> raise (Faulted (Fault.Bad_pc { pc }))
    | cs :: rest ->
        let off = pc - cs.cs_base in
        if off >= 0 && off < 4 * Array.length cs.cs_insns && off land 3 = 0 then begin
          let idx = off lsr 2 in
          (* dual-issue accounting: an instruction rides free when its
             predecessor issued as the first of a compatible aligned pair
             and control actually fell through to it *)
          if t.pending_pair && pc = t.prev_pc + 4 then t.pending_pair <- false
          else begin
            t.pair_cycles <- t.pair_cycles + 1;
            (* [State.is_pair] and [State.insn], without a call on the
               hot path *)
            t.pending_pair <-
              Char.code (Bytes.unsafe_get cs.cs_flags idx) land pair_bit <> 0
          end;
          t.prev_pc <- pc;
          let i = Array.unsafe_get cs.cs_insns idx in
          if i != undecoded then i else insn cs idx
        end
        else go rest
  in
  go t.code

let step t =
  let i = fetch t t.pc in
  (match t.trace with Some f -> f t.pc i | None -> ());
  t.insns <- t.insns + 1;
  let next = t.pc + 4 in
  let open Insn in
  (match i with
  | Mem { op = Lda; ra; rb; disp } ->
      t.cycles <- t.cycles + 1;
      setr t ra (Int64.add (getr t rb) (Int64.of_int disp));
      t.pc <- next
  | Mem { op = Ldah; ra; rb; disp } ->
      t.cycles <- t.cycles + 1;
      setr t ra (Int64.add (getr t rb) (Int64.of_int (disp * 65536)));
      t.pc <- next
  | Mem { op; ra; rb; disp } ->
      t.cycles <- t.cycles + 2;
      let addr = Int64.to_int (Int64.add (getr t rb) (Int64.of_int disp)) in
      if t.strict_align then begin
        let access, align = mem_access_info op in
        if align > 1 && addr land (align - 1) <> 0 then
          raise (Faulted (Fault.Unaligned { addr; access; pc = t.pc }))
      end;
      (match op with
      | Ldbu ->
          t.loads <- t.loads + 1;
          setr t ra (Int64.of_int (Mem.read_u8 t.mem addr))
      | Ldwu ->
          t.loads <- t.loads + 1;
          setr t ra (Int64.of_int (Mem.read_u16 t.mem addr))
      | Ldl ->
          t.loads <- t.loads + 1;
          setr t ra (sext32 (Int64.of_int (Mem.read_u32 t.mem addr)))
      | Ldq ->
          t.loads <- t.loads + 1;
          setr t ra (Mem.read_u64 t.mem addr)
      | Ldq_u ->
          t.loads <- t.loads + 1;
          setr t ra (Mem.read_u64 t.mem (addr land lnot 7))
      | Ldt ->
          t.loads <- t.loads + 1;
          setf t ra (Mem.read_u64 t.mem addr)
      | Stb ->
          t.stores <- t.stores + 1;
          Mem.write_u8 t.mem addr (Int64.to_int (getr t ra))
      | Stw ->
          t.stores <- t.stores + 1;
          Mem.write_u16 t.mem addr (Int64.to_int (Int64.logand (getr t ra) 0xFFFFL))
      | Stl ->
          t.stores <- t.stores + 1;
          Mem.write_u32 t.mem addr (Int64.to_int (Int64.logand (getr t ra) 0xFFFFFFFFL))
      | Stq ->
          t.stores <- t.stores + 1;
          Mem.write_u64 t.mem addr (getr t ra)
      | Stq_u ->
          t.stores <- t.stores + 1;
          Mem.write_u64 t.mem (addr land lnot 7) (getr t ra)
      | Stt ->
          t.stores <- t.stores + 1;
          Mem.write_u64 t.mem addr (getf t ra)
      | Lda | Ldah -> assert false);
      t.pc <- next
  | Opr { op; ra; rb; rc } ->
      t.cycles <- t.cycles + (match op with Mull | Mulq | Umulh -> 8 | _ -> 1);
      let b = match rb with Reg r -> getr t r | Imm n -> Int64.of_int n in
      if is_cmov op then begin
        if cmov_cond op (getr t ra) then setr t rc b
      end
      else setr t rc (eval_opr op (getr t ra) b);
      t.pc <- next
  | Fop { op; fa; fb; fc } ->
      t.cycles <- t.cycles + (match op with Divt -> 30 | Cpys | Cpysn -> 1 | _ -> 4);
      (match op with
      | Addt -> setfv t fc (getfv t fa +. getfv t fb)
      | Subt -> setfv t fc (getfv t fa -. getfv t fb)
      | Mult -> setfv t fc (getfv t fa *. getfv t fb)
      | Divt -> setfv t fc (getfv t fa /. getfv t fb)
      | Cmpteq -> setfv t fc (if getfv t fa = getfv t fb then 2.0 else 0.0)
      | Cmptlt -> setfv t fc (if getfv t fa < getfv t fb then 2.0 else 0.0)
      | Cmptle -> setfv t fc (if getfv t fa <= getfv t fb then 2.0 else 0.0)
      | Cvtqt -> setfv t fc (Int64.to_float (getf t fb))
      | Cvttq -> setf t fc (Int64.of_float (getfv t fb))
      | Cpys ->
          let sign = Int64.logand (getf t fa) Int64.min_int in
          setf t fc (Int64.logor sign (Int64.logand (getf t fb) Int64.max_int))
      | Cpysn ->
          let sign =
            Int64.logand (Int64.lognot (getf t fa)) Int64.min_int
          in
          setf t fc (Int64.logor sign (Int64.logand (getf t fb) Int64.max_int)));
      t.pc <- next
  | Br { link; ra; disp } ->
      t.cycles <- t.cycles + 1;
      if link then t.calls <- t.calls + 1;
      setr t ra (Int64.of_int next);
      t.pc <- next + (4 * disp)
  | Cbr { cond; ra; disp } ->
      t.cycles <- t.cycles + 1;
      t.cond_branches <- t.cond_branches + 1;
      if br_taken cond (getr t ra) then begin
        t.taken <- t.taken + 1;
        t.pc <- next + (4 * disp)
      end
      else t.pc <- next
  | Fbr { cond; fa; disp } ->
      t.cycles <- t.cycles + 1;
      t.cond_branches <- t.cond_branches + 1;
      if fbr_taken cond (getfv t fa) then begin
        t.taken <- t.taken + 1;
        t.pc <- next + (4 * disp)
      end
      else t.pc <- next
  | Jump { kind; ra; rb; hint = _ } ->
      t.cycles <- t.cycles + 1;
      if kind = Jsr then t.calls <- t.calls + 1;
      let target = Int64.to_int (getr t rb) land lnot 3 in
      setr t ra (Int64.of_int next);
      t.pc <- target
  | Call_pal 0x83 ->
      t.cycles <- t.cycles + 10;
      syscall t;
      t.pc <- next
  | Call_pal n -> raise (Faulted (Fault.Bad_pal { num = n; pc = t.pc }))
  | Raw w -> raise (Faulted (Fault.Illegal_insn { word = w; pc = t.pc })))
