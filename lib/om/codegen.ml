open Alpha

type error_info = { e_proc : string; e_pc : int; e_what : string }

exception Error of error_info

let error ~proc ~pc fmt =
  Printf.ksprintf (fun e_what -> raise (Error { e_proc = proc; e_pc = pc; e_what })) fmt

let error_message { e_proc; e_pc; e_what } =
  Printf.sprintf "procedure %s, pc %#x: %s" e_proc e_pc e_what

type stub = {
  s_size : int;
  s_emit : pc:int -> Alpha.Insn.t list;
}

let stub_of_insns insns =
  { s_size = 4 * List.length insns; s_emit = (fun ~pc:_ -> insns) }

type place = Before | After | Taken_edge

type entry = {
  t_pc : int;
  t_before : stub list;
  t_taken : stub list;
  t_after : stub list;
}

(* ascending by pc, one entry per pc.  A list, not an array: an array
   of more than 256 young values is made in the major heap, and
   [Array.make] empties the minor heap first so that it holds no young
   pointers, one minor collection of every domain per large request. *)
type table = entry list

let no_stubs pc = { t_pc = pc; t_before = []; t_taken = []; t_after = [] }

let table requests =
  let sorted =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) requests
  in
  (* from the right, so each place keeps its stubs in request order *)
  let add (pc, place, s) entries =
    let e, rest =
      match entries with
      | e :: rest when e.t_pc = pc -> (e, rest)
      | _ -> (no_stubs pc, entries)
    in
    (match place with
    | Before -> { e with t_before = s :: e.t_before }
    | Taken_edge -> { e with t_taken = s :: e.t_taken }
    | After -> { e with t_after = s :: e.t_after })
    :: rest
  in
  List.fold_right add sorted []

type extent = { e_addr : int; e_size : int }

type site = {
  st_pc : int;
  st_proc : string;
  st_before : extent list;
  st_insn_addr : int;
  st_taken : extent list;
  st_after : extent list;
}

type result = {
  r_text : bytes;
  r_map : int -> int;
  r_data_patches : (Objfile.Exe.code_ref * int) list;
  r_sites : site list;
}

let stub_bytes stubs = List.fold_left (fun acc s -> acc + s.s_size) 0 stubs

(* bytes an entry adds beside its instruction's own word *)
let entry_bytes e =
  let tramp =
    (* taken-edge trampoline: the stubs plus a branch to the original
       target (the branch itself reuses the instruction's own slot) *)
    if e.t_taken = [] then 0 else stub_bytes e.t_taken + 4
  in
  stub_bytes e.t_before + tramp + stub_bytes e.t_after

let sizeof ?(stubs = []) prog =
  List.fold_left
    (fun acc e -> acc + entry_bytes e)
    prog.Ir.exe.Objfile.Exe.x_text_size stubs

let sext16 v = if v land 0x8000 <> 0 then (v land 0xFFFF) - 0x10000 else v land 0xFFFF

(* [fn p i e] for every instruction in address order, with [e] the
   instruction's table entry if it has one: the table's pcs are walked
   beside the instructions, so finding an instruction's stubs costs one
   comparison and no lookup *)
let iter_beside prog (stubs : table) fn =
  let rest = ref stubs in
  Ir.iter_insts prog (fun p _ i ->
      match !rest with
      | e :: more when e.t_pc = i.Ir.i_pc ->
          rest := more;
          fn p i (Some e)
      | _ -> fn p i None);
  match !rest with
  | e :: _ ->
      failwith (Printf.sprintf "Codegen: stub table pc %#x is not an instruction" e.t_pc)
  | [] -> ()

let generate ?(stubs = []) prog =
  let exe = prog.Ir.exe in
  let base = exe.Objfile.Exe.x_text_start in
  let old_size = exe.Objfile.Exe.x_text_size in
  (* pass 1: layout *)
  let nwords = old_size / 4 in
  let map_arr = Array.make (nwords + 1) 0 in
  let cursor = ref base in
  iter_beside prog stubs (fun _ i e ->
      map_arr.((i.Ir.i_pc - base) / 4) <- !cursor;
      cursor :=
        !cursor + 4 + match e with Some e -> entry_bytes e | None -> 0);
  map_arr.(nwords) <- !cursor;
  (* every instruction occupies at least its own word, so the array-backed
     map must be strictly increasing (hence injective); check once here so
     every downstream consumer of [r_map] can rely on monotonicity *)
  for k = 1 to nwords do
    if map_arr.(k) <= map_arr.(k - 1) then
      failwith
        (Printf.sprintf "Codegen: pc map not strictly increasing at word %d" k)
  done;
  let new_size = !cursor - base in
  let map old =
    if old < base || old > base + old_size then
      failwith (Printf.sprintf "Codegen: PC map query outside text: %#x" old)
    else map_arr.((old - base) / 4)
  in
  (* the hi/lo code ref of each text word, if it has one; empty when the
     text has none, as is usual, so that no text-sized table is
     allocated in the major heap for nothing *)
  let hilo =
    let is_hilo cr =
      match cr.Objfile.Exe.cr_kind with
      | Objfile.Exe.Cr_hi | Objfile.Exe.Cr_lo -> true
      | Objfile.Exe.Cr_quad | Objfile.Exe.Cr_long -> false
    in
    Array.make
      (if List.exists is_hilo exe.Objfile.Exe.x_code_refs then nwords else 0)
      None
  in
  let hilo_at pc =
    let k = (pc - base) / 4 in
    if k < Array.length hilo then hilo.(k) else None
  in
  let data_patches = ref [] in
  List.iter
    (fun cr ->
      let open Objfile.Exe in
      match cr.cr_kind with
      | Cr_hi | Cr_lo ->
          let off = cr.cr_addr - base in
          if off >= 0 && off land 3 = 0 && off / 4 < nwords then
            hilo.(off / 4) <- Some cr
          else failwith "Codegen: hi/lo code ref is not a text word"
      | Cr_quad | Cr_long -> data_patches := (cr, map cr.cr_target) :: !data_patches)
    exe.Objfile.Exe.x_code_refs;
  (* pass 2: emission *)
  let out = Bytes.make new_size '\000' in
  let pos = ref 0 in
  let emit_insn insn =
    Code.encode_at out !pos insn;
    pos := !pos + 4
  in
  let sites = ref [] in
  let relocate p i ~before ~taken ~after =
    let err fmt = error ~proc:p.Ir.p_name ~pc:i.Ir.i_pc fmt in
    let emit_stub s =
      let pc = base + !pos in
      let insns = s.s_emit ~pc in
      if 4 * List.length insns <> s.s_size then
        err "stub at %#x emitted %d bytes, declared %d" pc
          (4 * List.length insns) s.s_size;
      List.iter emit_insn insns;
      { e_addr = pc; e_size = s.s_size }
    in
    let before_extents = List.map emit_stub before in
    let here = base + !pos in
    let insn = i.Ir.i_insn in
    let insn =
      (* retarget PC-relative branches through the map; preserve the
         absolute target of a branch that leaves the text segment *)
      match Insn.branch_target ~pc:i.Ir.i_pc insn with
      | Some old_target ->
          let new_target =
            if old_target >= base && old_target <= base + old_size then map old_target
            else old_target
          in
          let disp = (new_target - (here + 4)) / 4 in
          if not (Code.fits_disp21 disp) then
            err "branch to %#x needs displacement %d after expansion, \
                 outside the signed 21-bit range" new_target disp;
          Insn.with_branch_disp insn disp
      | None -> (
          (* rewrite hi/lo address materialisations that point into text *)
          match hilo_at i.Ir.i_pc with
          | None -> insn
          | Some cr -> (
              let nt = map cr.Objfile.Exe.cr_target in
              match (cr.Objfile.Exe.cr_kind, insn) with
              | Objfile.Exe.Cr_hi, Insn.Mem m ->
                  Insn.Mem { m with disp = sext16 (((nt + 0x8000) asr 16) land 0xFFFF) }
              | Objfile.Exe.Cr_lo, Insn.Mem m ->
                  Insn.Mem { m with disp = sext16 (nt land 0xFFFF) }
              | (Objfile.Exe.Cr_hi | Objfile.Exe.Cr_lo), _ ->
                  err "hi/lo code ref for %#x on a non-memory instruction"
                    cr.Objfile.Exe.cr_target
              | (Objfile.Exe.Cr_quad | Objfile.Exe.Cr_long), _ ->
                  err "internal: quad/long code ref in the hi/lo table"))
    in
    let taken_extents =
      if taken = [] then begin
        emit_insn insn;
        []
      end
      else begin
        (* taken-edge lowering: invert the branch over the trampoline *)
        let skip_words = (stub_bytes taken + 4) / 4 in
        let inverted =
          match Insn.invert_branch insn with
          | Some b -> Insn.with_branch_disp b skip_words
          | None -> err "taken-edge stubs on a non-conditional branch"
        in
        emit_insn inverted;
        let extents = List.map emit_stub taken in
        (* jump to the (moved) original target *)
        let old_target =
          match Insn.branch_target ~pc:i.Ir.i_pc i.Ir.i_insn with
          | Some t -> t
          | None -> err "internal: taken-edge instruction has no branch target"
        in
        let new_target =
          if old_target >= base && old_target <= base + old_size then map old_target
          else old_target
        in
        let br_pc = base + !pos in
        let disp = (new_target - (br_pc + 4)) / 4 in
        if not (Code.fits_disp21 disp) then
          err "taken-edge trampoline to %#x needs displacement %d, \
               outside the signed 21-bit range" new_target disp;
        emit_insn (Insn.Br { link = false; ra = Alpha.Reg.zero; disp });
        extents
      end
    in
    if after <> [] && not (Insn.falls_through i.Ir.i_insn) then
      err "after-stub on an instruction that does not fall through";
    let after_extents = List.map emit_stub after in
    if before_extents <> [] || taken_extents <> [] || after_extents <> [] then
      sites :=
        {
          st_pc = i.Ir.i_pc;
          st_proc = p.Ir.p_name;
          st_before = before_extents;
          st_insn_addr = here;
          st_taken = taken_extents;
          st_after = after_extents;
        }
        :: !sites
  in
  iter_beside prog stubs (fun p i e ->
      match e with
      | Some e -> relocate p i ~before:e.t_before ~taken:e.t_taken ~after:e.t_after
      | None ->
          (* most instructions have no stub, no PC-relative target and no
             hi/lo field to rewrite: they are copied as they are *)
          if
            Option.is_none (Insn.branch_disp i.Ir.i_insn)
            && Option.is_none (hilo_at i.Ir.i_pc)
          then emit_insn i.Ir.i_insn
          else relocate p i ~before:[] ~taken:[] ~after:[]);
  if !pos <> new_size then failwith "Codegen: layout/emission size mismatch";
  {
    r_text = out;
    r_map = map;
    r_data_patches = List.rev !data_patches;
    r_sites = List.rev !sites;
  }
