(* Reference implementations the tests compare the library against.

   [program_ref] is the IR builder as first written: per-address list
   scans for symbols and leaders, every word decoded without the decode
   memo.  [compute_ref] is the dense liveness fixpoint: full-procedure
   passes, a fresh block-index table per pass, every instruction
   re-stepped during propagation.  Both are slow and simple on purpose;
   [Om.Build.program] and [Om.Liveness.compute] must agree with them
   exactly. *)

open Alpha
module Ir = Om.Ir

(* -- IR builder ------------------------------------------------------------ *)

let program_ref exe =
  let text = Objfile.Exe.text_bytes exe in
  let base = exe.Objfile.Exe.x_text_start in
  let size = exe.Objfile.Exe.x_text_size in
  if size = 0 || size mod 4 <> 0 then failwith "Build.program: bad text segment";
  let n = size / 4 in
  let insns = Array.init n (fun i -> Code.decode_at text (i * 4)) in
  (* procedure boundaries from Func symbols *)
  let funcs = Objfile.Exe.funcs_sorted exe in
  let boundaries =
    let addrs = List.map (fun s -> s.Objfile.Exe.x_addr) funcs in
    let addrs = if List.mem base addrs then addrs else base :: addrs in
    List.sort_uniq compare addrs
  in
  let name_of addr =
    match List.find_opt (fun s -> s.Objfile.Exe.x_addr = addr) funcs with
    | Some s -> s.Objfile.Exe.x_name
    | None -> Printf.sprintf "proc_0x%x" addr
  in
  let rec proc_ranges = function
    | [] -> []
    | [ a ] -> [ (a, base + size) ]
    | a :: (b :: _ as rest) -> (a, b) :: proc_ranges rest
  in
  let ranges = proc_ranges boundaries in
  let build_proc (lo, hi) =
    let first = (lo - base) / 4 and limit = (hi - base) / 4 in
    (* leaders: entry, branch targets within [lo,hi), successors of
       terminators *)
    let leader = Array.make (limit - first) false in
    leader.(0) <- true;
    for i = first to limit - 1 do
      let pc = base + (i * 4) in
      let insn = insns.(i) in
      (match Insn.branch_target ~pc insn with
      | Some target when (not (Insn.is_call insn)) && target >= lo && target < hi ->
          leader.((target - base) / 4 - first) <- true
      | Some _ | None -> ());
      if Insn.is_terminator insn && i + 1 < limit then leader.(i + 1 - first) <- true
    done;
    (* carve blocks *)
    let blocks = ref [] in
    let blk_start = ref first in
    let flush stop =
      if stop > !blk_start then begin
        let insts =
          Array.init (stop - !blk_start) (fun k ->
              let idx = !blk_start + k in
              {
                Ir.i_insn = insns.(idx);
                i_pc = base + (idx * 4);
                i_before = [];
                i_after = [];
                i_taken = [];
              })
        in
        let last = insts.(Array.length insts - 1) in
        let succs =
          (* a call falls through once the callee returns *)
          let fall =
            if Insn.falls_through last.Ir.i_insn || Insn.is_call last.Ir.i_insn
            then [ last.Ir.i_pc + 4 ]
            else []
          in
          match Insn.branch_target ~pc:last.Ir.i_pc last.Ir.i_insn with
          | Some t when (not (Insn.is_call last.Ir.i_insn)) && t >= lo && t < hi ->
              t :: fall
          | Some _ | None -> fall
        in
        let succs = List.filter (fun a -> a >= lo && a < hi) succs in
        blocks :=
          { Ir.b_addr = base + (!blk_start * 4); b_insts = insts; b_succs = succs }
          :: !blocks;
        blk_start := stop
      end
    in
    for i = first + 1 to limit - 1 do
      if leader.(i - first) then flush i
    done;
    flush limit;
    {
      Ir.p_name = name_of lo;
      p_addr = lo;
      p_size = hi - lo;
      p_blocks = Array.of_list (List.rev !blocks);
    }
  in
  let procs = Array.of_list (List.map build_proc ranges) in
  { Ir.procs; exe }

(* -- liveness ---------------------------------------------------------------- *)

let all_regs = Om.Liveness.all_regs

(* registers conservatively assumed read by any callee *)
let call_uses =
  Regset.union
    (Regset.of_list [ 16; 17; 18; 19; 20; 21; 27; 30 ])
    (Regset.of_list_f [ 16; 17; 18; 19; 20; 21 ])

(* effect of one instruction on the live set, backward *)
let step insn live =
  let defs, uses =
    if Insn.is_call insn then
      ( Regset.union (Insn.defs insn) Regset.caller_saves,
        Regset.union (Insn.uses insn) call_uses )
    else (Insn.defs insn, Insn.uses insn)
  in
  Regset.union uses (Regset.diff live defs)

let compute_ref prog =
  let nprocs = Array.length prog.Ir.procs in
  let proc_index = Hashtbl.create nprocs in
  Array.iteri (fun i p -> Hashtbl.replace proc_index p.Ir.p_addr i) prog.Ir.procs;
  (* procedures whose address is taken can be called from anywhere *)
  let ret_live = Array.make nprocs Regset.empty in
  List.iter
    (fun cr ->
      match Hashtbl.find_opt proc_index cr.Objfile.Exe.cr_target with
      | Some i -> ret_live.(i) <- all_regs
      | None -> ())
    prog.Ir.exe.Objfile.Exe.x_code_refs;
  let changed = ref true in
  let table = Hashtbl.create 1024 in
  (* one intra-procedural pass; [record] optionally fills the final
     per-instruction table; call-site live-after sets feed callee
     return-liveness *)
  let analyse pi ~record =
    let p = prog.Ir.procs.(pi) in
    let blocks = p.Ir.p_blocks in
    let n = Array.length blocks in
    let index_of = Hashtbl.create n in
    Array.iteri (fun i b -> Hashtbl.replace index_of b.Ir.b_addr i) blocks;
    let live_in = Array.make n Regset.empty in
    let boundary b =
      let last = Ir.last_inst b in
      let insn = last.Ir.i_insn in
      if Insn.is_return insn then Some ret_live.(pi)
      else if Insn.is_call insn then None
      else
        match insn with
        | Insn.Jump _ -> Some all_regs
        | Insn.Call_pal _ | Insn.Raw _ -> Some all_regs
        | Insn.Br _ | Insn.Cbr _ | Insn.Fbr _ | Insn.Mem _ | Insn.Opr _
        | Insn.Fop _ ->
            if b.Ir.b_succs = [] then Some all_regs else None
    in
    let live_out b =
      match boundary b with
      | Some s -> s
      | None ->
          let last = Ir.last_inst b in
          let escapes =
            match Insn.branch_target ~pc:last.Ir.i_pc last.Ir.i_insn with
            | Some t ->
                (not (Insn.is_call last.Ir.i_insn))
                && not (List.mem t b.Ir.b_succs)
            | None -> false
          in
          let base = if escapes then all_regs else Regset.empty in
          List.fold_left
            (fun acc succ ->
              match Hashtbl.find_opt index_of succ with
              | Some j -> Regset.union acc live_in.(j)
              | None -> Regset.union acc all_regs)
            base b.Ir.b_succs
    in
    (* walk a block backward; optionally record table entries and
       call-site contributions *)
    let walk b ~emit =
      let insts = b.Ir.b_insts in
      let live = ref (live_out b) in
      for k = Array.length insts - 1 downto 0 do
        let inst = insts.(k) in
        if emit then begin
          (* before stepping, !live is the live-after set of inst *)
          (if Insn.is_call inst.Ir.i_insn then
             match Insn.branch_target ~pc:inst.Ir.i_pc inst.Ir.i_insn with
             | Some target -> (
                 match Hashtbl.find_opt proc_index target with
                 | Some q ->
                     let s = Regset.union ret_live.(q) !live in
                     if not (Regset.equal s ret_live.(q)) then begin
                       ret_live.(q) <- s;
                       changed := true
                     end
                 | None -> ())
             | None -> ());
          if record then Hashtbl.replace table inst.Ir.i_pc (step inst.Ir.i_insn !live)
        end;
        live := step inst.Ir.i_insn !live
      done;
      !live
    in
    let intra_changed = ref true in
    while !intra_changed do
      intra_changed := false;
      for i = n - 1 downto 0 do
        let s = walk blocks.(i) ~emit:false in
        if not (Regset.equal s live_in.(i)) then begin
          live_in.(i) <- s;
          intra_changed := true
        end
      done
    done;
    (* final pass over the converged solution *)
    Array.iter (fun b -> ignore (walk b ~emit:true)) blocks
  in
  (* interprocedural fixpoint over return-liveness *)
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    for pi = 0 to nprocs - 1 do
      analyse pi ~record:false
    done
  done;
  if !changed then
    (* did not converge (pathological); fall back to fully conservative *)
    Array.iteri (fun i _ -> ret_live.(i) <- all_regs) ret_live;
  Hashtbl.reset table;
  for pi = 0 to nprocs - 1 do
    analyse pi ~record:true
  done;
  table
