open Alpha

(* Symbol and leader lookups go through sorted arrays with binary search
   instead of per-address list scans, and decoding goes through the
   decode memo ([Code.decode_cached]); the tests check the output
   structurally against a list-scan builder. *)

(* leftmost index in [arr] holding [key], or -1 *)
let bsearch_first arr key =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length arr && arr.(!lo) = key then !lo else -1

let mem_sorted arr key = bsearch_first arr key >= 0

let program exe =
  let text = Objfile.Exe.text_bytes exe in
  let base = exe.Objfile.Exe.x_text_start in
  let size = exe.Objfile.Exe.x_text_size in
  if size = 0 || size mod 4 <> 0 then failwith "Build.program: bad text segment";
  let n = size / 4 in
  let insns = Array.init n (fun i -> Code.decode_at_cached text (i * 4)) in
  let funcs = Array.of_list (Objfile.Exe.funcs_sorted exe) in
  (* funcs_sorted is address-sorted; the first symbol at an address names
     the procedure *)
  let func_addrs = Array.map (fun s -> s.Objfile.Exe.x_addr) funcs in
  let name_of addr =
    match bsearch_first func_addrs addr with
    | -1 -> Printf.sprintf "proc_0x%x" addr
    | i -> funcs.(i).Objfile.Exe.x_name
  in
  let boundaries =
    let addrs = Array.to_list func_addrs in
    let addrs = if List.mem base addrs then addrs else base :: addrs in
    List.sort_uniq compare addrs
  in
  let rec proc_ranges = function
    | [] -> []
    | [ a ] -> [ (a, base + size) ]
    | a :: (b :: _ as rest) -> (a, b) :: proc_ranges rest
  in
  let ranges = proc_ranges boundaries in
  let build_proc (lo, hi) =
    let first = (lo - base) / 4 and limit = (hi - base) / 4 in
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
    (* sorted leader addresses: every legal intra-procedure successor is a
       block leader by construction, so successor filtering is a binary
       search here instead of a range filter *)
    let nleaders = ref 0 in
    Array.iter (fun l -> if l then incr nleaders) leader;
    let leader_pcs = Array.make !nleaders 0 in
    let k = ref 0 in
    Array.iteri
      (fun i l ->
        if l then begin
          leader_pcs.(!k) <- lo + (4 * i);
          incr k
        end)
      leader;
    let nblocks = !nleaders in
    let blocks = Array.make nblocks Ir.{ b_addr = 0; b_insts = [||]; b_succs = [] } in
    for bi = 0 to nblocks - 1 do
      let start = (leader_pcs.(bi) - base) / 4 in
      let stop =
        if bi + 1 < nblocks then (leader_pcs.(bi + 1) - base) / 4 else limit
      in
      let insts =
        Array.init (stop - start) (fun k ->
            let idx = start + k in
            { Ir.i_insn = insns.(idx); i_pc = base + (idx * 4) })
      in
      let last = insts.(Array.length insts - 1) in
      let succs =
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
      let succs = List.filter (mem_sorted leader_pcs) succs in
      blocks.(bi) <-
        { Ir.b_addr = base + (start * 4); b_insts = insts; b_succs = succs }
    done;
    { Ir.p_name = name_of lo; p_addr = lo; p_size = hi - lo; p_blocks = blocks }
  in
  let procs = Array.of_list (List.map build_proc ranges) in
  { Ir.procs; exe }
