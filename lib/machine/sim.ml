open Alpha
open State

type t = State.t

type stats = State.stats = {
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

type engine = State.engine = Ref | Fast

type outcome = State.outcome = Exit of int | Fault of Fault.t | Out_of_fuel

let sys_exit = State.sys_exit
let sys_read = State.sys_read
let sys_write = State.sys_write
let sys_close = State.sys_close
let sys_brk = State.sys_brk
let sys_open = State.sys_open

let engine_name = function Ref -> "ref" | Fast -> "fast"

let engine_of_string = function
  | "ref" | "reference" -> Some Ref
  | "fast" | "closure" -> Some Fast
  | _ -> None

let default_max_pages = 65536 (* 256 MiB of resident simulated memory *)
let default_stack_bytes = 8 * 1024 * 1024
let default_brk_span = 1 lsl 30 (* brk may roam 1 GiB above the break *)

(* The one fuel default, shared by every run path (Sim.run, the fast
   engine via it, Workloads.run_exe, Verify.differential, runsim --fuel,
   the serving daemon's per-request ceiling): 1G instructions.  Having a single threaded constant means
   a program can never report Fuel_exhausted through one path while
   completing through another.  Sized so the heaviest legitimate run we
   ship — a trace-instrumented workload at ~17x its base instruction
   count, 564M today — clears it with headroom. *)
let default_max_insns = 1_000_000_000
let insn_cycles = Exec.insn_cycles

(* An executable prepared for execution: code segments with their
   dual-issue pair bits and block leaders, and the protection region
   list, none of which depend on a particular run.  Preparing once and
   starting many machines from the same image is what makes a serving
   process cheap per run: thousands of runs share one parse. *)
type image = {
  im_exe : Objfile.Exe.t;
  im_code : code_seg list;
  im_seg_regions : (int * int * bool) list;  (* excludes the stack region *)
  im_stack_top : int;
  im_entry : int;
  im_break : int;
}

(* Whether an aligned pair [a], [b] dual-issues: class-compatible, and
   [b] consumes no result of [a]. *)
let pairs a b =
  Cost.can_pair (Cost.classify a) (Cost.classify b)
  && Regset.is_empty (Regset.inter (Insn.defs a) (Insn.uses b))

(* One pass over the words finds the pair bits and the leaders.  It
   decodes each word but keeps no instruction: most of an image's code
   never runs, and {!State.insn} decodes what does on first use. *)
let prepare_seg base bytes =
  let n = Bytes.length bytes / 4 in
  let cs =
    {
      cs_base = base;
      cs_words = bytes;
      cs_insns = Array.make n undecoded;
      cs_flags = Bytes.make n '\000';
    }
  in
  let prev = ref undecoded in
  for k = 0 to n - 1 do
    let i = Code.decode_at bytes (4 * k) in
    Exec.mark_leaders cs k i;
    if k > 0 && ((base / 4) + k - 1) land 1 = 0 && pairs !prev i then
      set_flag cs (k - 1) pair_bit;
    prev := i
  done;
  cs

let prepare exe =
  let code =
    List.filter_map
      (fun seg ->
        if seg.Objfile.Exe.seg_vaddr < exe.Objfile.Exe.x_data_start then
          Some (prepare_seg seg.Objfile.Exe.seg_vaddr seg.Objfile.Exe.seg_bytes)
        else None)
      exe.Objfile.Exe.x_segs
  in
  let seg_regions =
    List.map
      (fun seg ->
        let lo = seg.Objfile.Exe.seg_vaddr in
        ( lo,
          lo + Bytes.length seg.Objfile.Exe.seg_bytes + seg.Objfile.Exe.seg_bss,
          seg.Objfile.Exe.seg_write ))
      exe.Objfile.Exe.x_segs
  in
  {
    im_exe = exe;
    im_code = code;
    im_seg_regions = seg_regions;
    im_stack_top = Objfile.Exe.stack_top exe;
    im_entry = exe.Objfile.Exe.x_entry;
    im_break = exe.Objfile.Exe.x_break;
  }

let image_exe im = im.im_exe

let start ?(engine = Fast) ?(stdin = "") ?(inputs = []) ?(protect = true)
    ?(max_pages = default_max_pages) ?(stack_bytes = default_stack_bytes)
    ?brk_max ?(strict_align = false) im =
  let exe = im.im_exe in
  let mem = Mem.create () in
  List.iter
    (fun seg ->
      Mem.poke_bytes mem seg.Objfile.Exe.seg_vaddr seg.Objfile.Exe.seg_bytes)
    exe.Objfile.Exe.x_segs;
  let code = im.im_code in
  let vfs = Vfs.create ~stdin () in
  List.iter (fun (p, c) -> Vfs.add_input vfs p c) inputs;
  if protect then begin
    let regions =
      (im.im_stack_top - stack_bytes, im.im_stack_top, true)
      :: im.im_seg_regions
    in
    Mem.protect mem ~regions ~heap_lo:im.im_break ~max_pages
  end;
  let x_break = im.im_break in
  let t =
    {
      mem;
      regs = Bytes.make 256 '\000';
      fregs = Bytes.make 256 '\000';
      pc = im.im_entry;
      code;
      engine;
      fast = [];
      blocks_built = 0;
      vfs;
      brk = x_break;
      brk0 = x_break;
      brk_max = Option.value brk_max ~default:(x_break + default_brk_span);
      strict_align;
      block_cont = false;
      insns = 0;
      fuel = 0;
      cycles = 0;
      pair_cycles = 0;
      prev_pc = -8;
      pending_pair = false;
      loads = 0;
      stores = 0;
      cond_branches = 0;
      taken = 0;
      calls = 0;
      syscalls = 0;
      trace = None;
    }
  in
  setr t Reg.sp (Int64.of_int (im.im_stack_top - 64));
  t

let load ?engine ?stdin ?inputs ?protect ?max_pages ?stack_bytes ?brk_max
    ?strict_align exe =
  start ?engine ?stdin ?inputs ?protect ?max_pages ?stack_bytes ?brk_max
    ?strict_align (prepare exe)

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

let run_ref ~max_insns t =
  let rec go budget =
    if budget <= 0 then Out_of_fuel
    else
      match step t with
      | () -> go (budget - 1)
      | exception Halted code -> Exit code
      | exception Faulted f -> Fault f
      | exception Mem.Prot { addr; access } ->
          Fault (Fault.Segv { addr; access; pc = t.pc })
      | exception Mem.Limit { limit; _ } ->
          Fault (Fault.Mem_limit { limit; pc = t.pc })
  in
  go max_insns

let run ?(max_insns = default_max_insns) t =
  match t.engine with
  | Ref -> run_ref ~max_insns t
  | Fast -> Exec.run ~max_insns t

let stats t =
  {
    st_insns = t.insns;
    st_cycles = t.cycles;
    st_pair_cycles = t.pair_cycles;
    st_loads = t.loads;
    st_stores = t.stores;
    st_cond_branches = t.cond_branches;
    st_taken = t.taken;
    st_calls = t.calls;
    st_syscalls = t.syscalls;
  }

(* how many words of the machine's code satisfy [p] *)
let count_words p =
  List.fold_left
    (fun c cs ->
      let c = ref c in
      for k = 0 to Array.length cs.cs_insns - 1 do
        if p cs k then incr c
      done;
      !c)
    0

let blocks_translated t = (t.blocks_built, count_words is_leader t.code)

let words_decoded t =
  ( count_words (fun cs k -> Array.unsafe_get cs.cs_insns k != undecoded) t.code,
    List.fold_left (fun c cs -> c + Array.length cs.cs_insns) 0 t.code )

let engine t = t.engine
let vfs t = t.vfs
let stdout t = Vfs.stdout t.vfs
let stderr t = Vfs.stderr t.vfs
let output_files t = Vfs.output_files t.vfs
let reg t r = getr t r
let freg_bits t r = getf t r
let pc t = t.pc
let mem t = t.mem
let brk t = t.brk
let read_u64 t a = Mem.peek_u64 t.mem a
(* Installing a hook invalidates any cached translation: the fast engine
   compiles trace-aware code (per-instruction when a hook is present). *)
let set_trace t f =
  t.trace <- Some f;
  t.fast <- []
let set_reg t r v = setr t r v
let set_freg_bits t r v = setf t r v
let set_pc t pc = t.pc <- pc
