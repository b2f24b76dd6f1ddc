open Alpha

let all_regs =
  Regset.union
    (Regset.of_list (List.init 31 Fun.id))
    (Regset.of_list_f (List.init 31 Fun.id))

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

(* The analysis is interprocedural in the way the paper sketches: the
   registers live at a procedure's returns are those live after its call
   sites, unioned over all callers and iterated to fixpoint.  This stays
   sound for hand-written routines that break the calling standard (our
   [__divqu] returns a second result in [$3]): if a caller reads such a
   register after the call, it is live after the call site and therefore
   live at the callee's return.

   The remaining assumption, standard for ABI-bearing code: a caller never
   carries its own caller-save value across a call (a call is assumed to
   clobber every caller-save register). *)

(* The per-procedure CFG is preprocessed once — block gen/kill transfer
   sets, successor/predecessor index arrays, boundary classification — and
   propagation is worklist-driven over those arrays, warm-starting each
   interprocedural round from the previous round's solution (sound: the
   return-live sets only grow, so the warm start stays below the new
   fixpoint).  The tests check the table against a dense fixpoint. *)

(* how a block's live-out is obtained *)
type bkind =
  | B_ret  (** terminates in [ret]: live-out is the procedure's return set *)
  | B_all  (** indirect jump / PAL / raw / dead end: everything is live *)
  | B_flow of bool  (** union of successors; [true] adds [all_regs] for an
                        edge that escapes the procedure *)

type pblock = {
  k_gen : Regset.t;
  k_kill : Regset.t;
  k_succ : int array;
  k_pred : int array;
  k_kind : bkind;
}

let preprocess p =
  let blocks = p.Ir.p_blocks in
  let n = Array.length blocks in
  let addrs = Array.map (fun b -> b.Ir.b_addr) blocks in
  (* block addresses ascend within a procedure *)
  let index_of addr =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if addrs.(mid) < addr then lo := mid + 1 else hi := mid
    done;
    if !lo < n && addrs.(!lo) = addr then !lo else -1
  in
  let npreds = Array.make n 0 in
  let pre =
    Array.map
      (fun b ->
        let last = Ir.last_inst b in
        let insn = last.Ir.i_insn in
        let kind =
          if Insn.is_return insn then B_ret
          else if Insn.is_call insn then
            B_flow (List.exists (fun s -> index_of s < 0) b.Ir.b_succs)
          else
            match insn with
            | Insn.Jump _ | Insn.Call_pal _ | Insn.Raw _ -> B_all
            | Insn.Br _ | Insn.Cbr _ | Insn.Fbr _ | Insn.Mem _ | Insn.Opr _
            | Insn.Fop _ ->
                if b.Ir.b_succs = [] then B_all
                else
                  let escapes =
                    (match Insn.branch_target ~pc:last.Ir.i_pc insn with
                    | Some t -> not (List.mem t b.Ir.b_succs)
                    | None -> false)
                    || List.exists (fun s -> index_of s < 0) b.Ir.b_succs
                  in
                  B_flow escapes
        in
        let succ =
          Array.of_list
            (List.filter_map
               (fun s ->
                 let j = index_of s in
                 if j < 0 then None else Some j)
               b.Ir.b_succs)
        in
        Array.iter (fun j -> npreds.(j) <- npreds.(j) + 1) succ;
        (* backward gen/kill over the block's instructions *)
        let gen = ref Regset.empty and kill = ref Regset.empty in
        let insts = b.Ir.b_insts in
        for k = Array.length insts - 1 downto 0 do
          let insn = insts.(k).Ir.i_insn in
          let defs, uses =
            if Insn.is_call insn then
              ( Regset.union (Insn.defs insn) Regset.caller_saves,
                Regset.union (Insn.uses insn) call_uses )
            else (Insn.defs insn, Insn.uses insn)
          in
          kill := Regset.union !kill defs;
          gen := Regset.union uses (Regset.diff !gen defs)
        done;
        { k_gen = !gen; k_kill = !kill; k_succ = succ; k_pred = [||]; k_kind = kind })
      blocks
  in
  let preds = Array.init n (fun i -> Array.make npreds.(i) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i pb ->
      Array.iter
        (fun j ->
          preds.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        pb.k_succ)
    pre;
  Array.mapi (fun i pb -> { pb with k_pred = preds.(i) }) pre

let compute prog =
  let nprocs = Array.length prog.Ir.procs in
  let proc_index = Hashtbl.create nprocs in
  Array.iteri (fun i p -> Hashtbl.replace proc_index p.Ir.p_addr i) prog.Ir.procs;
  let ret_live = Array.make nprocs Regset.empty in
  List.iter
    (fun cr ->
      match Hashtbl.find_opt proc_index cr.Objfile.Exe.cr_target with
      | Some i -> ret_live.(i) <- all_regs
      | None -> ())
    prog.Ir.exe.Objfile.Exe.x_code_refs;
  let changed = ref true in
  let table = Hashtbl.create 1024 in
  let pre = Array.map preprocess prog.Ir.procs in
  (* per-procedure solutions persist across interprocedural rounds *)
  let live_ins =
    Array.map (fun p -> Array.make (Array.length p.Ir.p_blocks) Regset.empty)
      prog.Ir.procs
  in
  let analyse pi ~record =
    let p = prog.Ir.procs.(pi) in
    let pb = pre.(pi) in
    let live_in = live_ins.(pi) in
    let n = Array.length pb in
    let live_out i =
      match pb.(i).k_kind with
      | B_ret -> ret_live.(pi)
      | B_all -> all_regs
      | B_flow escapes ->
          Array.fold_left
            (fun acc j -> Regset.union acc live_in.(j))
            (if escapes then all_regs else Regset.empty)
            pb.(i).k_succ
    in
    let on_list = Array.make n false in
    let stack = ref [] in
    let push i =
      if not on_list.(i) then begin
        on_list.(i) <- true;
        stack := i :: !stack
      end
    in
    (* seed forward so the last block pops first (backward analysis) *)
    for i = 0 to n - 1 do
      push i
    done;
    let rec drain () =
      match !stack with
      | [] -> ()
      | i :: rest ->
          stack := rest;
          on_list.(i) <- false;
          let nin =
            Regset.union pb.(i).k_gen (Regset.diff (live_out i) pb.(i).k_kill)
          in
          if not (Regset.equal nin live_in.(i)) then begin
            live_in.(i) <- nin;
            Array.iter push pb.(i).k_pred
          end;
          drain ()
    in
    drain ();
    (* converged: walk each block once to harvest call-site contributions
       to callee return-liveness and, when requested, the final table *)
    Array.iteri
      (fun i b ->
        let insts = b.Ir.b_insts in
        let live = ref (live_out i) in
        for k = Array.length insts - 1 downto 0 do
          let inst = insts.(k) in
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
          if record then
            Hashtbl.replace table inst.Ir.i_pc (step inst.Ir.i_insn !live);
          live := step inst.Ir.i_insn !live
        done)
      p.Ir.p_blocks
  in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    for pi = 0 to nprocs - 1 do
      analyse pi ~record:false
    done
  done;
  if !changed then begin
    (* did not converge (pathological); fall back to fully conservative *)
    Array.iteri (fun i _ -> ret_live.(i) <- all_regs) ret_live;
    (* the warm-started solutions must re-converge against the new sets *)
    ()
  end;
  Hashtbl.reset table;
  for pi = 0 to nprocs - 1 do
    analyse pi ~record:true
  done;
  table

let live_before table pc =
  match Hashtbl.find_opt table pc with Some s -> s | None -> all_regs

(* procedures are disjoint, so the next instruction is in the same one
   exactly when it lies inside the range of the procedure holding [pc] *)
let live_after prog table pc =
  match Ir.proc_at prog pc with
  | Some p when pc + 4 < p.Ir.p_addr + p.Ir.p_size -> live_before table (pc + 4)
  | Some _ | None -> all_regs
