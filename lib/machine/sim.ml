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

(* A traced or strict-alignment machine runs on the reference loop
   whichever engine it was started with: the hook must see every
   instruction, and each access checks its own alignment. *)
let run ?(max_insns = default_max_insns) t =
  match (t.engine, t.trace) with
  | Fast, None when not t.strict_align -> Exec.run ~max_insns t
  | _ -> run_ref ~max_insns t

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
let set_trace t f = t.trace <- Some f
let set_reg t r v = setr t r v
let set_freg_bits t r v = setf t r v
let set_pc t pc = t.pc <- pc
