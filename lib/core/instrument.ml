open Objfile

type save_strategy = Summary | Save_all | Summary_and_live
type call_style = Wrapper | Inline_saves | Inline_body | Specialized
type heap_mode = Linked | Partitioned of int

type options = {
  save_strategy : save_strategy;
  call_style : call_style;
  heap_mode : heap_mode;
}

let default_options =
  { save_strategy = Summary; call_style = Wrapper; heap_mode = Linked }

(* every option that could affect analysis-side codegen is part of the
   toolchain-cache key (see Toolcache): changing an option is a miss *)
let options_key o =
  Printf.sprintf "%s/%s/%s"
    (match o.save_strategy with
    | Summary -> "summary"
    | Save_all -> "save-all"
    | Summary_and_live -> "summary+live")
    (match o.call_style with
    | Wrapper -> "wrapper"
    | Inline_saves -> "inline"
    | Inline_body -> "spliced"
    | Specialized -> "specialized")
    (match o.heap_mode with
    | Linked -> "linked"
    | Partitioned n -> Printf.sprintf "partitioned:%d" n)

type audit_site = {
  as_pc : int;
  as_place : Api.place;
  as_proc : string;
  as_summary : Alpha.Regset.t;
  as_nargs : int;
}

type audit = {
  au_options : options;
  au_sites : audit_site list;
  au_layout : Om.Codegen.site list;
  au_prog_text : int * int;
  au_anal_text : int * int;
  au_anal_region : int * int;
  au_wrappers : (string * int) list;
  au_procs : (string * int) list;
}

type info = {
  i_sites : int;
  i_calls : int;
  i_text_growth : int;
  i_analysis_bytes : int;
  i_map : int -> int;
  i_audit : audit;
}

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Analysis symbols join an instrumented image's table under this
   prefix, so it marks an image as instrumented already. *)
let analysis_prefix = "anal$"

let align16 n = (n + 15) / 16 * 16

(* Decode a procedure's instructions from a linked analysis image; used
   to qualify and extract bodies for the inlining optimization. *)
let decode_proc text ~text_base ~addr ~size =
  List.init (size / 4) (fun i -> Alpha.Code.decode_at text (addr - text_base + (4 * i)))

(* A routine can be spliced at the site when its body is position
   independent as a group: no calls, no indirect jumps, every PC-relative
   branch stays inside, and a single [ret] as the last instruction. *)
let inlinable_body text ~text_base ~addr ~size =
  if size < 8 || size > 200 || size mod 4 <> 0 then None
  else begin
    let insns = decode_proc text ~text_base ~addr ~size in
    let n = size / 4 in
    let ok =
      List.for_all2
        (fun i insn ->
          if i = n - 1 then Alpha.Insn.is_return insn
          else
            match insn with
            | Alpha.Insn.Jump _ | Alpha.Insn.Raw _ -> false
            | Alpha.Insn.Br { link = true; _ } -> false
            | _ -> (
                match Alpha.Insn.branch_target ~pc:(addr + (4 * i)) insn with
                | Some t -> t >= addr && t <= addr + size - 4
                | None -> true))
        (List.init n Fun.id) insns
    in
    if ok then Some (List.filteri (fun i _ -> i < n - 1) insns) else None
  end

(* The [Specialized] style only splices the tightest shape: a straight-line
   leaf — no control flow at all, no calls, a single trailing [ret], and a
   short body (the counter-increment shape used by prof/branch/trace).
   Anything else becomes a direct call with the specialized save set. *)
let max_leaf_insns = 16

let leaf_body text ~text_base ~addr ~size =
  if size < 8 || size > 4 * (max_leaf_insns + 1) || size mod 4 <> 0 then None
  else begin
    let insns = decode_proc text ~text_base ~addr ~size in
    let n = size / 4 in
    let ok =
      List.for_all2
        (fun i insn ->
          if i = n - 1 then Alpha.Insn.is_return insn
          else
            match insn with
            | Alpha.Insn.Jump _ | Alpha.Insn.Raw _ | Alpha.Insn.Br _
            | Alpha.Insn.Cbr _ | Alpha.Insn.Fbr _ | Alpha.Insn.Call_pal _ ->
                false
            | Alpha.Insn.Mem _ | Alpha.Insn.Opr _ | Alpha.Insn.Fop _ -> true)
        (List.init n Fun.id) insns
    in
    if ok then Some (List.filteri (fun i _ -> i < n - 1) insns) else None
  end

(* Build a throwaway executable for the analysis module so OM can compute
   dataflow summaries; the summaries are base-independent. *)
let analysis_summaries pl =
  let bases =
    Linker.Link.bases_for pl ~text:0x10000
      ~rdata:(align16 (0x10000 + pl.Linker.Link.pl_sizes.(0)))
      ~data:
        (align16
           (0x10000 + pl.Linker.Link.pl_sizes.(0) + pl.Linker.Link.pl_sizes.(1))
         + 0x1000)
  in
  let img = Linker.Link.emit ~symbol_overrides:[ ("_end", 0x200000) ] pl bases in
  let exe =
    {
      Exe.x_entry = bases.Linker.Link.b_text;
      x_segs =
        [ { Exe.seg_vaddr = bases.Linker.Link.b_text; seg_bytes = img.Linker.Link.i_text; seg_bss = 0; seg_write = false } ];
      x_symbols = List.map snd img.Linker.Link.i_globals;
      x_text_start = bases.Linker.Link.b_text;
      x_text_size = Bytes.length img.Linker.Link.i_text;
      x_data_start = bases.Linker.Link.b_data;
      x_break = 0;
      x_code_refs = [];
    }
  in
  (Om.Dataflow.compute (Om.Build.program exe), img, bases.Linker.Link.b_text)

(* select, lay out and provisionally link the analysis module, and run
   the dataflow-summary analysis over the provisional image; pure in the
   analysis units, so [instrument] serves it from [Toolcache] *)
let prepare_analysis analysis =
  let inputs =
    List.map (fun u -> Linker.Link.Unit u) analysis
    @ [ Linker.Link.Lib (Rtlib.libc ()) ]
  in
  let units = Linker.Link.select_units inputs in
  if units = [] then fail "empty analysis module";
  let pl = Linker.Link.layout units in
  let summaries, img, text_base = analysis_summaries pl in
  {
    Toolcache.pr_pl = pl;
    pr_summaries = summaries;
    pr_img = img;
    pr_text_base = text_base;
  }

let instrument ?(options = default_options) ~exe ~tool ~analysis () =
  let wrap_errors f =
    try f () with
    | Api.Error m | Failure m -> fail "%s" m
    | Om.Codegen.Error e -> fail "codegen: %s" (Om.Codegen.error_message e)
    | Linker.Link.Error m -> fail "link: %s" m
  in
  wrap_errors @@ fun () ->
  (* an instrumented image's analysis region fills the text gap where a
     second analysis region would go: the two would overlap *)
  (match
     List.find_opt
       (fun s -> String.starts_with ~prefix:analysis_prefix s.Exe.x_name)
       exe.Exe.x_symbols
   with
  | Some s -> fail "input is already instrumented (it defines %s)" s.Exe.x_name
  | None -> ());
  (* 1. the user's instrumentation routine walks the program view and
     asks for calls; the built IR is tool-independent and holds no
     stubs, so the cached one is shared across a tool sweep and by
     concurrent requests *)
  let prog = Toolcache.program exe in
  let api = Api.create prog in
  tool api;
  let user_actions = Api.actions api in
  (* 2. select and lay out the analysis module (own copy of the runtime);
     content-addressed across calls: the key is the serialised analysis
     units plus the option fingerprint, so the same tool applied across a
     workload suite is prepared once *)
  let anal_key =
    String.concat "\000" (List.map Toolcache.unit_digest analysis)
    ^ "\001" ^ options_key options
  in
  let prepared =
    Toolcache.find_or_add anal_key (fun () -> prepare_analysis analysis)
  in
  let pl = prepared.Toolcache.pr_pl in
  let summaries = prepared.Toolcache.pr_summaries in
  let prov_img = prepared.Toolcache.pr_img in
  let prov_text_base = prepared.Toolcache.pr_text_base in
  let analysis_globals = prov_img.Linker.Link.i_globals in
  let proc_defined name = List.mem_assoc name analysis_globals in
  if not (proc_defined "__libc_init") then
    fail "analysis module does not define __libc_init (runtime library missing?)";
  (* 3. decide the call list; implicit init call runs first *)
  let nargs_of name =
    match Hashtbl.find_opt (Api.protos api) name with
    | Some p -> List.length p.Proto.p_params
    | None -> 0
  in
  let init_site = Api.first_inst_of_proc (Api.entry_proc api) in
  let fini_actions =
    (* flush the analysis module's buffered stdio after the program (and
       all user ProgramAfter hooks) are done *)
    match Api.exit_proc api with
    | Some p when proc_defined "__libc_fini" ->
        [ { Api.a_proc = "__libc_fini"; a_args = [];
            a_inst = Api.first_inst_of_proc p; a_place = Api.Before;
            a_rank = Api.rank_program_after + 1 } ]
    | Some _ | None -> []
  in
  let actions =
    ({ Api.a_proc = "__libc_init"; a_args = []; a_inst = init_site;
       a_place = Api.Before; a_rank = Api.rank_program_before - 1 }
    :: user_actions)
    @ fini_actions
  in
  (* Same-site ordering: ProgramBefore hooks (and the implicit runtime
     init) run before any block- or instruction-level call planted on the
     same instruction; ProgramAfter hooks (and the stdio flush) after
     them.  A tool may register its per-block counter calls before its
     init hook — under the fail-closed memory map the init really must
     run first, or the counter call dereferences a pointer the init has
     not set up yet.  The sort is stable, so registration order still
     decides within a rank. *)
  let actions = List.stable_sort (fun a b -> compare a.Api.a_rank b.Api.a_rank) actions in
  List.iter
    (fun a ->
      if not (proc_defined a.Api.a_proc) then
        fail "analysis procedure %s is not defined by the analysis module" a.Api.a_proc)
    actions;
  let called =
    List.sort_uniq compare (List.map (fun a -> a.Api.a_proc) actions)
  in
  (* 4. registers each called procedure may clobber *)
  let summary_of name =
    match options.save_strategy with
    | Save_all -> Om.Dataflow.all_caller_saves
    | Summary | Summary_and_live -> Om.Dataflow.modified_by summaries name
  in
  let live_table =
    (* the [Specialized] style always live-filters its save sets,
       whatever the save strategy says; one table per application is
       shared with every tool and with the verifier *)
    match (options.save_strategy, options.call_style) with
    | Summary_and_live, _ | _, Specialized -> Some (Toolcache.liveness exe)
    | (Summary | Save_all), _ -> None
  in
  (* 5. interned strings and late-bound addresses *)
  let strings = Buffer.create 64 in
  let string_offsets = Hashtbl.create 8 in
  let strings_base = ref 0 in
  let intern s =
    let off =
      match Hashtbl.find_opt string_offsets s with
      | Some off -> off
      | None ->
          let off = Buffer.length strings in
          Buffer.add_string strings s;
          Buffer.add_char strings '\000';
          Hashtbl.replace string_offsets s off;
          off
    in
    fun () -> !strings_base + off
  in
  let wrapper_addrs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let proc_addrs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* bodies for the inlining style: lengths decided on the provisional
     image, instructions read from the finally-placed one (step 7) *)
  let inline_len : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let inline_bodies : (string, Alpha.Insn.t list) Hashtbl.t = Hashtbl.create 16 in
  (match options.call_style with
  | Inline_body | Specialized ->
      let qualifies =
        match options.call_style with
        | Specialized -> leaf_body
        | Wrapper | Inline_saves | Inline_body -> inlinable_body
      in
      let text_len = Bytes.length prov_img.Linker.Link.i_text in
      List.iter
        (fun name ->
          match List.assoc_opt name analysis_globals with
          | Some sym
            when sym.Exe.x_addr >= prov_text_base
                 && sym.Exe.x_addr + sym.Exe.x_size <= prov_text_base + text_len -> (
              match
                qualifies prov_img.Linker.Link.i_text ~text_base:prov_text_base
                  ~addr:sym.Exe.x_addr ~size:sym.Exe.x_size
              with
              | Some body -> Hashtbl.replace inline_len name (List.length body)
              | None -> ())
          | Some _ | None -> ())
        called
  | Wrapper | Inline_saves -> ());
  let callee_of name : Stubgen.callee =
    match options.call_style with
    | Wrapper -> Stubgen.Call (fun () -> Hashtbl.find wrapper_addrs name)
    | Inline_saves -> Stubgen.Call (fun () -> Hashtbl.find proc_addrs name)
    | Inline_body | Specialized -> (
        match Hashtbl.find_opt inline_len name with
        | Some n -> Stubgen.Splice (n, fun () -> Hashtbl.find inline_bodies name)
        | None -> Stubgen.Call (fun () -> Hashtbl.find proc_addrs name))
  in
  (* 6. lower actions to this request's stub table *)
  let resolve_arg (a : Api.action) arg =
    match arg with
    | Api.Int v -> Stubgen.R_const v
    | Api.Inst_pc i -> Stubgen.R_const (Api.inst_pc i)
    | Api.Block_pc b -> Stubgen.R_const (Api.block_pc b)
    | Api.Proc_pc p -> Stubgen.R_const (Api.proc_pc p)
    | Api.Regv r -> Stubgen.R_regv r
    | Api.Br_cond_value -> Stubgen.R_cond
    | Api.Eff_addr_value -> Stubgen.R_effaddr
    | Api.Str s ->
        ignore a;
        Stubgen.R_addr (intern s)
  in
  let audit_sites =
    List.map
      (fun (a : Api.action) ->
        {
          as_pc = Api.inst_pc a.Api.a_inst;
          as_place = a.Api.a_place;
          as_proc = a.Api.a_proc;
          as_summary = summary_of a.Api.a_proc;
          as_nargs = List.length a.Api.a_args;
        })
      actions
  in
  let lower (a : Api.action) =
    let ir_inst = Api.ir_inst a.Api.a_inst in
    let extra_saves =
      match options.call_style with
      | Wrapper -> Alpha.Regset.empty
      | Inline_saves | Inline_body | Specialized ->
          Alpha.Regset.diff (summary_of a.Api.a_proc)
            (Alpha.Regset.of_list
               (Alpha.Reg.ra
               :: List.init (List.length a.Api.a_args) (fun i -> 16 + i)))
    in
    let live =
      Option.map
        (fun tbl ->
          match a.Api.a_place with
          | Api.Before | Api.Taken_edge ->
              (* for a taken edge, live-before the branch is a superset
                 of liveness at the taken target *)
              Om.Liveness.live_before tbl ir_inst.Om.Ir.i_pc
          | Api.After -> Om.Liveness.live_after prog tbl ir_inst.Om.Ir.i_pc)
        live_table
    in
    ( ir_inst.Om.Ir.i_pc,
      a.Api.a_place,
      Stubgen.site_stub ~site_insn:ir_inst.Om.Ir.i_insn
        ~args:(List.map (resolve_arg a) a.Api.a_args)
        ~extra_saves ?live
        ~callee:(callee_of a.Api.a_proc) () )
  in
  let stubs = Om.Codegen.table (List.map lower actions) in
  (* 7. placement *)
  let text_base = exe.Exe.x_text_start in
  let new_text_size = Om.Codegen.sizeof ~stubs prog in
  let a_text = align16 (text_base + new_text_size) in
  let a_rdata = align16 (a_text + pl.Linker.Link.pl_sizes.(0)) in
  let a_data = align16 (a_rdata + pl.Linker.Link.pl_sizes.(1)) in
  let a_end = a_data + pl.Linker.Link.pl_sizes.(2) + pl.Linker.Link.pl_sizes.(3) in
  let bases = Linker.Link.bases_for pl ~text:a_text ~rdata:a_rdata ~data:a_data in
  (* heap-mode symbol handling *)
  (* the analysis module's `_end' is pointed at the application's break:
     in linked mode both allocators then share the application heap *)
  let overrides =
    ("_end", exe.Exe.x_break)
    ::
    (match options.heap_mode with
    | Linked -> (
        match Exe.find_symbol exe "__curbrk" with
        | Some s -> [ ("__curbrk", s.Exe.x_addr) ]
        | None -> [])
    | Partitioned _ -> [])
  in
  let build_linked () =
    let img = Linker.Link.emit ~symbol_overrides:overrides pl bases in
    (* analysis blob: text ++ pad ++ rdata ++ pad ++ data ++ zeroed bss
       (the paper's "uninitialised data converted to initialised"). *)
    let blob_len = a_end - a_text in
    let blob = Bytes.make blob_len '\000' in
    Bytes.blit img.Linker.Link.i_text 0 blob 0 (Bytes.length img.Linker.Link.i_text);
    Bytes.blit img.Linker.Link.i_rdata 0 blob (a_rdata - a_text)
      (Bytes.length img.Linker.Link.i_rdata);
    Bytes.blit img.Linker.Link.i_data 0 blob (a_data - a_text)
      (Bytes.length img.Linker.Link.i_data);
    (* partitioned heap: preset the analysis module's break variable *)
    (match options.heap_mode with
    | Linked -> ()
    | Partitioned offset -> (
        match List.assoc_opt "__curbrk" img.Linker.Link.i_globals with
        | Some s ->
            Bytes.set_int64_le blob (s.Exe.x_addr - a_text)
              (Int64.of_int (exe.Exe.x_break + offset))
        | None -> fail "partitioned heap mode: analysis module has no __curbrk"));
    { Toolcache.ln_img = img; ln_blob = blob }
  in
  (* everything in the final link depends only on the prepared module, the
     bases and the overrides; keyed on those, nothing is relinked when the
     same tool meets the same application layout again *)
  let linked =
    let key =
      Digest.string
        (Printf.sprintf "%s\002%d:%d:%d:%d\003%s" anal_key a_text a_rdata
           a_data a_end
           (String.concat ";"
              (List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) overrides)))
    in
    Toolcache.find_or_add_linked key build_linked
  in
  let img = linked.Toolcache.ln_img in
  (* the template may be shared with other callers; hand each image its
     own copy *)
  let blob = Bytes.copy linked.Toolcache.ln_blob in
  List.iter
    (fun (name, sym) -> Hashtbl.replace proc_addrs name sym.Exe.x_addr)
    img.Linker.Link.i_globals;
  (* final instruction bodies for spliced routines *)
  Hashtbl.iter
    (fun name n ->
      match List.assoc_opt name img.Linker.Link.i_globals with
      | Some sym ->
          let body =
            decode_proc img.Linker.Link.i_text ~text_base:a_text ~addr:sym.Exe.x_addr
              ~size:((n + 1) * 4)
          in
          Hashtbl.replace inline_bodies name (List.filteri (fun i _ -> i < n) body)
      | None -> ())
    inline_len;
  (* 8. wrappers and strings after the analysis module *)
  let wrappers_at = align16 a_end in
  let wrapper_code = Buffer.create 256 in
  (match options.call_style with
  | Inline_saves | Inline_body | Specialized -> ()
  | Wrapper ->
      List.iter
        (fun name ->
          let at = wrappers_at + Buffer.length wrapper_code in
          Hashtbl.replace wrapper_addrs name at;
          let insns =
            Stubgen.wrapper ~at ~summary:(summary_of name) ~nargs:(nargs_of name)
              ~proc_addr:(Hashtbl.find proc_addrs name)
          in
          List.iter
            (fun i ->
              Buffer.add_int32_le wrapper_code
                (Int32.of_int (Alpha.Code.encode i)))
            insns)
        called);
  strings_base := align16 (wrappers_at + Buffer.length wrapper_code);
  let gap_end = !strings_base + Buffer.length strings in
  if gap_end > Linker.Link.rdata_base then
    fail
      "instrumented program does not fit the text gap (%#x past %#x): \
       application too large"
      gap_end Linker.Link.rdata_base;
  (* 9. regenerate the application text *)
  let result = Om.Codegen.generate ~stubs prog in
  (* patch data-resident code references (e.g. taken function addresses) *)
  let segs =
    List.map
      (fun seg ->
        let patches =
          List.filter
            (fun (cr, _) ->
              cr.Exe.cr_addr >= seg.Exe.seg_vaddr
              && cr.Exe.cr_addr < seg.Exe.seg_vaddr + Bytes.length seg.Exe.seg_bytes)
            result.Om.Codegen.r_data_patches
        in
        if patches = [] then seg
        else begin
          let b = Bytes.copy seg.Exe.seg_bytes in
          List.iter
            (fun (cr, new_target) ->
              let off = cr.Exe.cr_addr - seg.Exe.seg_vaddr in
              match cr.Exe.cr_kind with
              | Exe.Cr_quad -> Bytes.set_int64_le b off (Int64.of_int new_target)
              | Exe.Cr_long -> Alpha.Code.write_word b off (new_target land 0xFFFFFFFF)
              | Exe.Cr_hi | Exe.Cr_lo ->
                  failwith "Instrument: hi/lo code ref escaped into data")
            patches;
          { seg with Exe.seg_bytes = b }
        end)
      (List.filter (fun s -> s.Exe.seg_vaddr <> text_base) exe.Exe.x_segs)
  in
  let wrappers_bytes = Buffer.to_bytes wrapper_code in
  let strings_bytes = Buffer.to_bytes strings in
  let new_segs =
    { Exe.seg_vaddr = text_base; seg_bytes = result.Om.Codegen.r_text;
      seg_bss = 0; seg_write = false }
    :: (* the analysis-module blob carries its own data and bss (counters,
          the partitioned [__curbrk]), so it must stay writable even
          though it is based in the text–data gap *)
       { Exe.seg_vaddr = a_text; seg_bytes = blob; seg_bss = 0;
         seg_write = true }
    ::
    (if Bytes.length wrappers_bytes > 0 || Bytes.length strings_bytes > 0 then
       [
         {
           Exe.seg_vaddr = wrappers_at;
           seg_bytes =
             (let total = gap_end - wrappers_at in
              let b = Bytes.make total '\000' in
              Bytes.blit wrappers_bytes 0 b 0 (Bytes.length wrappers_bytes);
              Bytes.blit strings_bytes 0 b (!strings_base - wrappers_at)
                (Bytes.length strings_bytes);
              b);
           seg_bss = 0;
           seg_write = false;
         };
       ]
     else [])
    @ segs
  in
  (* application symbols move with the text; analysis symbols join the
     table under a partitioned name space *)
  let map = result.Om.Codegen.r_map in
  let in_old_text a = a >= text_base && a < text_base + exe.Exe.x_text_size in
  let moved_syms =
    List.map
      (fun s -> if in_old_text s.Exe.x_addr then { s with Exe.x_addr = map s.Exe.x_addr } else s)
      exe.Exe.x_symbols
  in
  let analysis_syms =
    List.map
      (fun (_, s) -> { s with Exe.x_name = analysis_prefix ^ s.Exe.x_name })
      img.Linker.Link.i_globals
  in
  let exe' =
    {
      Exe.x_entry = map exe.Exe.x_entry;
      x_segs = new_segs;
      x_symbols = moved_syms @ analysis_syms;
      x_text_start = text_base;
      x_text_size = new_text_size;
      x_data_start = exe.Exe.x_data_start;
      x_break = exe.Exe.x_break;
      x_code_refs = [];
    }
  in
  let audit =
    {
      au_options = options;
      au_sites = audit_sites;
      au_layout = result.Om.Codegen.r_sites;
      au_prog_text = (text_base, new_text_size);
      au_anal_text = (a_text, Bytes.length img.Linker.Link.i_text);
      au_anal_region = (a_text, gap_end - a_text);
      au_wrappers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) wrapper_addrs [];
      au_procs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) proc_addrs [];
    }
  in
  let info =
    {
      i_sites = List.length actions;
      i_calls = List.length called;
      i_text_growth = new_text_size - exe.Exe.x_text_size;
      i_analysis_bytes = gap_end - a_text;
      i_map = map;
      i_audit = audit;
    }
  in
  (exe', info)

let instrument_source ?options ~exe ~tool ~analysis_src () =
  let unit_ =
    try Rtlib.compile_user ~name:"analysis.o" analysis_src
    with Minic.Driver.Error m -> fail "analysis routines: %s" m
  in
  instrument ?options ~exe ~tool ~analysis:[ unit_ ] ()
