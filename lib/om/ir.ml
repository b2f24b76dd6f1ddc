type inst = {
  i_insn : Alpha.Insn.t;
  i_pc : int;
}

type block = {
  b_addr : int;
  b_insts : inst array;
  b_succs : int list;
}

type proc = {
  p_name : string;
  p_addr : int;
  p_size : int;
  p_blocks : block array;
}

type program = {
  procs : proc array;
  exe : Objfile.Exe.t;
}

let first_inst b = b.b_insts.(0)
let last_inst b = b.b_insts.(Array.length b.b_insts - 1)
let entry_block p = p.p_blocks.(0)

let inst_count prog =
  Array.fold_left
    (fun acc p ->
      Array.fold_left (fun acc b -> acc + Array.length b.b_insts) acc p.p_blocks)
    0 prog.procs

let iter_insts prog fn =
  Array.iter
    (fun p -> Array.iter (fun b -> Array.iter (fun i -> fn p b i) b.b_insts) p.p_blocks)
    prog.procs

let find_proc prog name =
  Array.find_opt (fun p -> p.p_name = name) prog.procs

let proc_at prog addr =
  Array.find_opt (fun p -> addr >= p.p_addr && addr < p.p_addr + p.p_size) prog.procs
