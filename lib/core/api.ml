exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type proc = { t_prog : Om.Ir.program; pi : int }
type block = { bp : proc; bi : int }
type inst = { ib : block; ii : int }

type arg =
  | Int of int
  | Inst_pc of inst
  | Block_pc of block
  | Proc_pc of proc
  | Regv of Alpha.Reg.t
  | Br_cond_value
  | Eff_addr_value
  | Str of string

type program_place = Program_before | Program_after
type place = Om.Codegen.place = Before | After | Taken_edge

type action = {
  a_proc : string;
  a_args : arg list;
  a_inst : inst;
  a_place : place;
  a_rank : int;
}

(* Same-site ordering classes.  ProgramBefore hooks must run before any
   instruction- or block-level call planted on the same instruction (the
   entry point), and ProgramAfter hooks after them, no matter the order
   the tool registered them in. *)
let rank_program_before = 0
let rank_normal = 1
let rank_program_after = 2

type t = {
  prog : Om.Ir.program;
  protos : (string, Proto.t) Hashtbl.t;
  mutable acts : action list;  (* reversed *)
}

let create prog = { prog; protos = Hashtbl.create 16; acts = [] }
let ir t = t.prog
let protos t = t.protos
let actions t = List.rev t.acts

(* -- handles ----------------------------------------------------------- *)

let nth_proc t i = { t_prog = t.prog; pi = i }
let om_proc p = p.t_prog.Om.Ir.procs.(p.pi)
let om_block b = (om_proc b.bp).Om.Ir.p_blocks.(b.bi)
let om_inst i = (om_block i.ib).Om.Ir.b_insts.(i.ii)
let ir_inst = om_inst

let procs t = List.init (Array.length t.prog.Om.Ir.procs) (nth_proc t)

let get_first_proc t =
  if Array.length t.prog.Om.Ir.procs > 0 then Some (nth_proc t 0) else None

let get_next_proc t p =
  if p.pi + 1 < Array.length t.prog.Om.Ir.procs then Some (nth_proc t (p.pi + 1))
  else None

let blocks p =
  List.init (Array.length (om_proc p).Om.Ir.p_blocks) (fun bi -> { bp = p; bi })

let get_first_block p =
  if Array.length (om_proc p).Om.Ir.p_blocks > 0 then Some { bp = p; bi = 0 } else None

let get_next_block p b =
  if b.bi + 1 < Array.length (om_proc p).Om.Ir.p_blocks then
    Some { bp = p; bi = b.bi + 1 }
  else None

let insts b =
  List.init (Array.length (om_block b).Om.Ir.b_insts) (fun ii -> { ib = b; ii })

let get_first_inst b =
  if Array.length (om_block b).Om.Ir.b_insts > 0 then Some { ib = b; ii = 0 } else None

let get_last_inst b = { ib = b; ii = Array.length (om_block b).Om.Ir.b_insts - 1 }

let get_next_inst b i =
  if i.ii + 1 < Array.length (om_block b).Om.Ir.b_insts then
    Some { ib = b; ii = i.ii + 1 }
  else None

let proc_name p = (om_proc p).Om.Ir.p_name
let proc_pc p = (om_proc p).Om.Ir.p_addr
let proc_size p = (om_proc p).Om.Ir.p_size
let block_pc b = (om_block b).Om.Ir.b_addr
let block_ninsts b = Array.length (om_block b).Om.Ir.b_insts
let block_succs b = (om_block b).Om.Ir.b_succs
let inst_pc i = (om_inst i).Om.Ir.i_pc
let inst_insn i = (om_inst i).Om.Ir.i_insn

type inst_type =
  | Inst_cond_branch
  | Inst_uncond_branch
  | Inst_load
  | Inst_store
  | Inst_memory
  | Inst_jump
  | Inst_call
  | Inst_return
  | Inst_fp
  | Inst_syscall

let is_inst_type i ty =
  let insn = inst_insn i in
  match ty with
  | Inst_cond_branch -> Alpha.Insn.is_cond_branch insn
  | Inst_uncond_branch -> Alpha.Insn.kind insn = Alpha.Insn.K_uncond_branch
  | Inst_load -> Alpha.Insn.is_load insn
  | Inst_store -> Alpha.Insn.is_store insn
  | Inst_memory -> Alpha.Insn.is_memory_ref insn
  | Inst_jump -> Alpha.Insn.kind insn = Alpha.Insn.K_jump
  | Inst_call -> Alpha.Insn.is_call insn
  | Inst_return -> Alpha.Insn.is_return insn
  | Inst_fp -> Alpha.Insn.kind insn = Alpha.Insn.K_fop
  | Inst_syscall -> ( match insn with Alpha.Insn.Call_pal 0x83 -> true | _ -> false)

let inst_access_bytes i = Alpha.Insn.access_bytes (inst_insn i)

let call_target t i =
  let insn = inst_insn i in
  if Alpha.Insn.is_call insn then
    match Alpha.Insn.branch_target ~pc:(inst_pc i) insn with
    | Some addr -> (
        match Om.Ir.proc_at t.prog addr with
        | Some p when p.Om.Ir.p_addr = addr -> Some p.Om.Ir.p_name
        | Some _ | None -> None)
    | None -> None
  else None

let find_proc t name =
  let n = Array.length t.prog.Om.Ir.procs in
  let rec find i =
    if i >= n then None
    else if t.prog.Om.Ir.procs.(i).Om.Ir.p_name = name then Some (nth_proc t i)
    else find (i + 1)
  in
  find 0

let entry_proc t =
  let entry = t.prog.Om.Ir.exe.Objfile.Exe.x_entry in
  let n = Array.length t.prog.Om.Ir.procs in
  let rec find i =
    if i >= n then fail "entry point %#x has no procedure" entry
    else if t.prog.Om.Ir.procs.(i).Om.Ir.p_addr = entry then nth_proc t i
    else find (i + 1)
  in
  find 0

let exit_proc t = find_proc t "exit"

(* -- adding calls ------------------------------------------------------ *)

let add_call_proto t proto_str =
  match Proto.parse proto_str with
  | p ->
      if List.length p.Proto.p_params > 6 then
        fail "%s: more than six parameters are not supported" p.Proto.p_name;
      Hashtbl.replace t.protos p.Proto.p_name p
  | exception Proto.Parse_error m -> fail "%s" m

let check_args t name (site : inst) place args =
  let proto =
    match Hashtbl.find_opt t.protos name with
    | Some p -> p
    | None -> fail "no prototype for analysis procedure %s (use add_call_proto)" name
  in
  let kinds = proto.Proto.p_params in
  if List.length args <> List.length kinds then
    fail "%s: expected %d arguments, got %d" name (List.length kinds)
      (List.length args);
  let insn = inst_insn site in
  List.iter2
    (fun kind arg ->
      match (kind, arg) with
      | Proto.K_const, (Int _ | Inst_pc _ | Block_pc _ | Proc_pc _ | Str _) -> ()
      | Proto.K_regv, Regv r ->
          if r < 0 || r > 31 then fail "%s: bad register %d" name r
      | Proto.K_value, Br_cond_value ->
          if not (Alpha.Insn.is_cond_branch insn) then
            fail "%s: BrCondValue on a non-conditional-branch instruction" name;
          if place = After then fail "%s: BrCondValue only before the branch" name
      | Proto.K_value, Eff_addr_value ->
          if not (Alpha.Insn.is_memory_ref insn) then
            fail "%s: EffAddrValue on a non-memory instruction" name
      | (Proto.K_const | Proto.K_regv | Proto.K_value), _ ->
          fail "%s: argument does not match prototype parameter %s" name
            (Proto.kind_name kind))
    kinds args

let add_action ?(rank = rank_normal) t site place name args =
  check_args t name site place args;
  if place = After && not (Alpha.Insn.falls_through (inst_insn site)) then
    fail "%s: cannot insert after an instruction that does not fall through" name;
  if place = Taken_edge && not (Alpha.Insn.is_cond_branch (inst_insn site)) then
    fail "%s: taken-edge calls only apply to conditional branches" name;
  t.acts <-
    { a_proc = name; a_args = args; a_inst = site; a_place = place; a_rank = rank }
    :: t.acts

let add_call_inst t i place name args = add_action t i place name args

let first_inst_of_proc p =
  match get_first_block p with
  | Some b -> (
      match get_first_inst b with
      | Some i -> i
      | None -> fail "%s: empty block" (proc_name p))
  | None -> fail "%s: empty procedure" (proc_name p)

type edge = Taken | Fallthrough

let add_call_edge t b edge name args =
  let last = get_last_inst b in
  let insn = inst_insn last in
  match edge with
  | Taken ->
      if Alpha.Insn.is_cond_branch insn then add_action t last Taken_edge name args
      else if Alpha.Insn.kind insn = Alpha.Insn.K_uncond_branch
              && not (Alpha.Insn.is_call insn) then
        (* an unconditional branch: its only edge is always taken *)
        add_action t last Before name args
      else fail "%s: block at %#x has no taken edge" name (block_pc b)
  | Fallthrough ->
      if Alpha.Insn.falls_through insn then add_action t last After name args
      else fail "%s: block at %#x has no fall-through edge" name (block_pc b)

let add_call_block t b place name args =
  match place with
  | Taken_edge -> fail "%s: use add_call_edge for edges" name
  | Before -> (
      match get_first_inst b with
      | Some i -> add_action t i Before name args
      | None -> fail "empty block at %#x" (block_pc b))
  | After ->
      let last = get_last_inst b in
      if Alpha.Insn.is_terminator (inst_insn last) then
        add_action t last Before name args
      else add_action t last After name args

let add_call_proc t p place name args =
  match place with
  | Taken_edge -> fail "%s: use add_call_edge for edges" name
  | Before -> add_action t (first_inst_of_proc p) Before name args
  | After ->
      (* before every return instruction of the procedure *)
      let added = ref false in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              if Alpha.Insn.is_return (inst_insn i) then begin
                add_action t i Before name args;
                added := true
              end)
            (insts b))
        (blocks p);
      if not !added then
        fail "%s: procedure %s has no return instruction" name (proc_name p)

let add_call_program t place name args =
  match place with
  | Program_before ->
      add_action ~rank:rank_program_before t
        (first_inst_of_proc (entry_proc t))
        Before name args
  | Program_after -> (
      match exit_proc t with
      | Some p ->
          add_action ~rank:rank_program_after t (first_inst_of_proc p) Before
            name args
      | None ->
          fail
            "%s: ProgramAfter needs an `exit' procedure in the application \
             (link against the runtime library)"
            name)
