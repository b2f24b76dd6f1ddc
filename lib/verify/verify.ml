open Alpha
module Exe = Objfile.Exe
module I = Atom.Instrument

type issue = { v_check : string; v_addr : int option; v_detail : string }

type report = { r_checks : string list; r_issues : issue list }

let ok r = r.r_issues = []

let static_checks =
  [ "decode-roundtrip"; "branch-range"; "pc-map"; "layout"; "stub-frame";
    "stub-saves"; "stub-callee"; "stub-coverage" ]

let differential_checks =
  [ "diff-exit"; "diff-stdout"; "diff-stderr"; "diff-files"; "diff-break" ]

let pp_issue ppf i =
  Format.fprintf ppf "[%s]%s %s" i.v_check
    (match i.v_addr with Some a -> Printf.sprintf " %#x:" a | None -> "")
    i.v_detail

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf "verify: ok (%d checks)" (List.length r.r_checks)
  else begin
    Format.fprintf ppf "verify: %d issue(s)" (List.length r.r_issues);
    List.iter (fun i -> Format.fprintf ppf "@\n  %a" pp_issue i) r.r_issues
  end

let report_to_string r = Format.asprintf "%a" pp_report r

let merge a b =
  { r_checks = a.r_checks @ b.r_checks; r_issues = a.r_issues @ b.r_issues }

(* -- image access -------------------------------------------------------- *)

let seg_containing exe addr =
  List.find_opt
    (fun s ->
      addr >= s.Exe.seg_vaddr
      && addr + 4 <= s.Exe.seg_vaddr + Bytes.length s.Exe.seg_bytes)
    exe.Exe.x_segs

let read_word exe addr =
  match seg_containing exe addr with
  | Some s -> Some (Code.read_word s.Exe.seg_bytes (addr - s.Exe.seg_vaddr))
  | None -> None

(* [iter_words exe lo n f] calls [f addr w] for the [n] words from [lo],
   with [w = None] where no segment maps the word.  The containing
   segment is looked up again only when a word falls outside the last
   one found, so a run of words inside one segment costs one lookup. *)
let iter_words exe lo n f =
  let seg = ref None in
  for k = 0 to n - 1 do
    let addr = lo + (4 * k) in
    (match !seg with
    | Some s
      when addr >= s.Exe.seg_vaddr
           && addr + 4 <= s.Exe.seg_vaddr + Bytes.length s.Exe.seg_bytes ->
        ()
    | _ -> seg := seg_containing exe addr);
    f addr
      (Option.map
         (fun s -> Code.read_word s.Exe.seg_bytes (addr - s.Exe.seg_vaddr))
         !seg)
  done

(* Decoded instructions of a stub extent; unmapped words are dropped (the
   layout pass flags those separately).  Decoding a word costs less than
   a lookup in a shared decode memo would, so the verifier decodes
   afresh. *)
let extent_insns exe (ext : Om.Codegen.extent) =
  let insns = ref [] in
  iter_words exe ext.Om.Codegen.e_addr (ext.Om.Codegen.e_size / 4)
    (fun addr w ->
      Option.iter (fun w -> insns := (addr, Code.decode w) :: !insns) w);
  List.rev !insns

(* -- stub parsing --------------------------------------------------------
   Every inserted code sequence — site stub or wrapper body — has the
   shape   lda sp,-N(sp) / saves / middle / mirrored restores /
   lda sp,+N(sp).  The parser recovers the frame so the checker can reason
   about it; any deviation is itself a finding.  [note check addr detail]
   reports a finding; [what ()] names the sequence in its detail, built
   only when there is one to report. *)

type frame = {
  f_saves : (bool * int * int) list;  (** (is_fp, reg, sp offset) *)
  f_middle : (int * Insn.t) list;
  f_calls : (int * int) list;  (** (bsr address, callee address) *)
}

let regset_of_saves saves =
  List.fold_left
    (fun acc (is_fp, r, _) ->
      if is_fp then Regset.add_f r acc else Regset.add r acc)
    Regset.empty saves

let parse_frame ~(note : string -> int option -> string -> unit) ~what
    (insns : (int * Insn.t) list) =
  match insns with
  | (_, Insn.Mem { op = Insn.Lda; ra; rb; disp }) :: rest
    when ra = Reg.sp && rb = Reg.sp && disp <= 0 -> (
      let size = -disp in
      let rec take_saves seen_fp acc = function
        | (_, Insn.Mem { op = Insn.Stq; ra = r; rb; disp }) :: tl
          when (not seen_fp) && rb = Reg.sp ->
            take_saves false ((false, r, disp) :: acc) tl
        | (_, Insn.Mem { op = Insn.Stt; ra = r; rb; disp }) :: tl
          when rb = Reg.sp ->
            take_saves true ((true, r, disp) :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let saves, rest = take_saves false [] rest in
      match List.rev rest with
      | (addr_close, Insn.Mem { op = Insn.Lda; ra; rb; disp = close })
        :: rev_mid
        when ra = Reg.sp && rb = Reg.sp ->
          if close <> size then
            note "stub-frame" (Some addr_close)
              (Printf.sprintf
                 "%t: frame opened with %d bytes but closed with %d" what size
                 close);
          let nsaves = List.length saves in
          let restores, rev_middle =
            let rec take k acc = function
              | (_, Insn.Mem { op = Insn.Ldq; ra = r; rb; disp }) :: tl
                when k > 0 && rb = Reg.sp ->
                  take (k - 1) ((false, r, disp) :: acc) tl
              | (_, Insn.Mem { op = Insn.Ldt; ra = r; rb; disp }) :: tl
                when k > 0 && rb = Reg.sp ->
                  take (k - 1) ((true, r, disp) :: acc) tl
              | tl -> (acc, tl)
            in
            take nsaves [] rev_mid
          in
          let sorted l = List.sort compare l in
          if sorted restores <> sorted saves then
            note "stub-saves" (Some addr_close)
              (Printf.sprintf
                 "%t: registers saved and restored differ (%d saved, %d \
                  restored)"
                 what nsaves (List.length restores));
          let middle = List.rev rev_middle in
          let calls =
            List.filter_map
              (fun (a, i) ->
                match i with
                | Insn.Br { link = true; disp; _ } ->
                    Some (a, a + 4 + (4 * disp))
                | _ -> None)
              middle
          in
          (* A spliced analysis body (call_style = Inline_body) may open and
             close its own frames inside the stub; only require that every
             inner sp adjustment is a [lda sp,d(sp)] and that they balance
             before the restores run. *)
          let depth =
            List.fold_left
              (fun depth (a, i) ->
                let defs = Insn.defs i in
                match i with
                | Insn.Mem { op = Insn.Lda; ra; rb; disp }
                  when ra = Reg.sp && rb = Reg.sp ->
                    let depth = depth - disp in
                    if depth < 0 then
                      note "stub-frame" (Some a)
                        (Printf.sprintf
                           "%t: stack pointer raised above the stub frame" what);
                    max depth 0
                | _ ->
                    if Regset.mem Reg.sp defs then
                      note "stub-frame" (Some a)
                        (Printf.sprintf
                           "%t: stack pointer modified inside the frame" what);
                    if Regset.mem Reg.gp defs then
                      note "stub-frame" (Some a)
                        (Printf.sprintf
                           "%t: global pointer modified inside the frame" what);
                    depth)
              0 middle
          in
          if depth <> 0 then
            note "stub-frame" (Some addr_close)
              (Printf.sprintf
                 "%t: %d bytes of inner frame still open at the restores" what
                 depth);
          Some { f_saves = saves; f_middle = middle; f_calls = calls }
      | _ ->
          note "stub-frame"
            (match insns with (a, _) :: _ -> Some a | [] -> None)
            (Printf.sprintf "%t: frame is not closed by lda sp,+N(sp)" what);
          None)
  | (a, _) :: _ ->
      note "stub-frame" (Some a)
        (Printf.sprintf "%t: does not open a frame with lda sp,-N(sp)" what);
      None
  | [] ->
      note "stub-frame" None (Printf.sprintf "%t: empty stub" what);
      None

(* -- the static pass ----------------------------------------------------- *)

let check_image ~original ~instrumented ~(info : I.info) =
  let au = info.I.i_audit in
  let pt_base, pt_size = au.I.au_prog_text in
  let at_base, at_size = au.I.au_anal_text in
  let rg_base, rg_size = au.I.au_anal_region in
  let issues = ref [] in
  let note v_check v_addr v_detail =
    issues := { v_check; v_addr; v_detail } :: !issues
  in
  let flag check ?addr fmt =
    Printf.ksprintf (fun detail -> note check addr detail) fmt
  in
  (* decode + branch discipline over one executable region: each word is
     decoded once, and re-encoding that value checks the round trip *)
  let scan_region name lo size ~allow_call_out =
    let check_target ~addr ~callable disp =
      let t = addr + 4 + (4 * disp) in
      if t land 3 <> 0 then
        flag "branch-range" ~addr "%s: branch target %#x is not word-aligned"
          name t
      else if t < lo || t >= lo + size then
        if
          not
            (callable && allow_call_out
            && ((t >= at_base && t < at_base + at_size)
               || List.exists (fun (_, a) -> a = t) au.I.au_wrappers))
        then
          flag "branch-range" ~addr
            "%s: branch target %#x leaves the region [%#x, %#x)" name t lo
            (lo + size)
    in
    iter_words instrumented lo (size / 4) (fun addr w ->
        match w with
        | None ->
            flag "layout" ~addr "%s: address not mapped by any segment" name
        | Some w -> (
            let insn = Code.decode w in
            if Code.encode insn <> w then
              flag "decode-roundtrip" ~addr
                "%s: word %#010x does not round-trip through encode/decode"
                name w;
            match insn with
            | Insn.Br { link; disp; _ } ->
                check_target ~addr ~callable:link disp
            | Insn.Cbr { disp; _ } | Insn.Fbr { disp; _ } ->
                check_target ~addr ~callable:false disp
            | _ -> ()))
  in
  scan_region "program text" pt_base pt_size ~allow_call_out:true;
  scan_region "analysis text" at_base at_size ~allow_call_out:false;
  (* PC map: total, strictly increasing (hence injective), in range *)
  let o_base = original.Exe.x_text_start
  and o_size = original.Exe.x_text_size in
  let prev = ref min_int in
  for k = 0 to (o_size / 4) - 1 do
    let old = o_base + (4 * k) in
    match info.I.i_map old with
    | exception _ -> flag "pc-map" ~addr:old "old PC has no mapping"
    | n ->
        if n <= !prev then
          flag "pc-map" ~addr:old "map not strictly increasing: %#x after %#x"
            n !prev;
        if n < pt_base || n >= pt_base + pt_size then
          flag "pc-map" ~addr:old "old PC maps to %#x, outside the new text" n;
        if (n - pt_base) land 3 <> 0 then
          flag "pc-map" ~addr:old "old PC maps to unaligned %#x" n;
        prev := n
  done;
  (* Figure-4 layout: program addresses pristine, analysis in the gap,
     and an image the loader accepts *)
  (match Exe.validate instrumented with
  | _ -> ()
  | exception Objfile.Wire.Corrupt m -> flag "layout" "%s" m);
  if instrumented.Exe.x_text_start <> original.Exe.x_text_start then
    flag "layout" "text base moved: %#x -> %#x" original.Exe.x_text_start
      instrumented.Exe.x_text_start;
  if instrumented.Exe.x_data_start <> original.Exe.x_data_start then
    flag "layout" "data base moved: %#x -> %#x" original.Exe.x_data_start
      instrumented.Exe.x_data_start;
  if instrumented.Exe.x_break <> original.Exe.x_break then
    flag "layout" "initial break moved: %#x -> %#x" original.Exe.x_break
      instrumented.Exe.x_break;
  (try
     if instrumented.Exe.x_entry <> info.I.i_map original.Exe.x_entry then
       flag "layout" "entry %#x is not the mapped original entry"
         instrumented.Exe.x_entry
   with _ ->
     flag "layout" "original entry %#x is unmapped" original.Exe.x_entry);
  if at_base < pt_base + pt_size then
    flag "layout" "analysis text %#x overlaps program text ending at %#x"
      at_base (pt_base + pt_size);
  if rg_base + rg_size > Linker.Link.rdata_base then
    flag "layout" "analysis region ends at %#x, past the text gap boundary %#x"
      (rg_base + rg_size) Linker.Link.rdata_base;
  List.iter
    (fun oseg ->
      if oseg.Exe.seg_vaddr <> original.Exe.x_text_start then
        match
          List.find_opt
            (fun s -> s.Exe.seg_vaddr = oseg.Exe.seg_vaddr)
            instrumented.Exe.x_segs
        with
        | None ->
            flag "layout" ~addr:oseg.Exe.seg_vaddr
              "original data segment vanished from the instrumented image"
        | Some s ->
            if
              Bytes.length s.Exe.seg_bytes <> Bytes.length oseg.Exe.seg_bytes
              || s.Exe.seg_bss <> oseg.Exe.seg_bss
            then
              flag "layout" ~addr:oseg.Exe.seg_vaddr
                "data segment resized: %d+%d bytes -> %d+%d bytes"
                (Bytes.length oseg.Exe.seg_bytes)
                oseg.Exe.seg_bss
                (Bytes.length s.Exe.seg_bytes)
                s.Exe.seg_bss)
    original.Exe.x_segs;
  (* stubs: frames balanced, saves sufficient, calls well-targeted *)
  let strategy = au.I.au_options.I.save_strategy in
  let style = au.I.au_options.I.call_style in
  (* liveness mirrors the engine: the [Specialized] style live-filters
     its save sets regardless of the save strategy.  The table and the IR
     come from the cache entries keyed by the original executable — a
     function of that executable alone, never the engine's word. *)
  let orig_prog = lazy (Atom.Toolcache.program original) in
  let live_table =
    lazy
      (match (strategy, style) with
      | I.Summary_and_live, _ | _, I.Specialized ->
          Some (Atom.Toolcache.liveness original)
      | (I.Summary | I.Save_all), _ -> None)
  in
  let live_at pc place =
    match Lazy.force live_table with
    | None -> None
    | Some tbl -> (
        match (place : Atom.Api.place) with
        | Atom.Api.Before | Atom.Api.Taken_edge ->
            Some (Om.Liveness.live_before tbl pc)
        | Atom.Api.After ->
            Some (Om.Liveness.live_after (Lazy.force orig_prog) tbl pc))
  in
  let in_anal_text t = t >= at_base && t < at_base + at_size in
  let wrapper_cache : (int, Regset.t option) Hashtbl.t = Hashtbl.create 8 in
  let parse_wrapper addr =
    match Hashtbl.find_opt wrapper_cache addr with
    | Some r -> r
    | None ->
        let rec collect k acc =
          if k > 256 then None
          else
            match read_word instrumented (addr + (4 * k)) with
            | None -> None
            | Some w -> (
                match Code.decode w with
                | Insn.Jump { kind = Insn.Ret; _ } -> Some (List.rev acc)
                | i -> collect (k + 1) ((addr + (4 * k), i) :: acc))
        in
        let r =
          match collect 0 [] with
          | None ->
              flag "stub-callee" ~addr "wrapper has no terminating ret";
              None
          | Some body -> (
              match
                parse_frame ~note
                  ~what:(fun () -> Printf.sprintf "wrapper at %#x" addr)
                  body
              with
              | None -> None
              | Some f ->
                  List.iter
                    (fun (baddr, t) ->
                      if not (in_anal_text t) then
                        flag "stub-callee" ~addr:baddr
                          "wrapper at %#x calls %#x, outside the analysis text"
                          addr t)
                    f.f_calls;
                  Some (regset_of_saves f.f_saves))
        in
        Hashtbl.replace wrapper_cache addr r;
        r
  in
  let check_stub (site : I.audit_site) (ext : Om.Codegen.extent) =
    let what () =
      Printf.sprintf "stub for %s at old pc %#x" site.I.as_proc site.I.as_pc
    in
    match parse_frame ~note ~what (extent_insns instrumented ext) with
    | None -> ()
    | Some f ->
        let saved = regset_of_saves f.f_saves in
        let protected_, called_ok =
          match f.f_calls with
          | [] ->
              (* spliced body: everything must be protected at the site *)
              if style <> I.Inline_body && style <> I.Specialized then
                flag "stub-callee" ~addr:ext.Om.Codegen.e_addr
                  "%t: no analysis call emitted" what;
              (saved, true)
          | [ (baddr, target) ] -> (
              let expected_wrapper =
                match style with
                | I.Wrapper -> List.assoc_opt site.I.as_proc au.I.au_wrappers
                | I.Inline_saves | I.Inline_body | I.Specialized -> None
              in
              let expected_proc = List.assoc_opt site.I.as_proc au.I.au_procs in
              match expected_wrapper with
              | Some w when target = w -> (
                  match parse_wrapper w with
                  | Some wsaves -> (Regset.union saved wsaves, true)
                  | None -> (saved, false))
              | Some w ->
                  flag "stub-callee" ~addr:baddr
                    "%t: calls %#x, expected the wrapper at %#x" what target w;
                  (saved, false)
              | None -> (
                  match expected_proc with
                  | Some p when target = p -> (saved, true)
                  | Some p ->
                      flag "stub-callee" ~addr:baddr
                        "%t: calls %#x, expected %s at %#x" what target
                        site.I.as_proc p;
                      (saved, false)
                  | None ->
                      flag "stub-callee" ~addr:baddr
                        "%t: callee %s has no recorded address" what
                        site.I.as_proc;
                      (saved, false)))
          | calls ->
              flag "stub-callee" ~addr:ext.Om.Codegen.e_addr
                "%t: %d calls emitted, expected one" what (List.length calls);
              (saved, false)
        in
        if called_ok then begin
          (* with no call emitted (spliced body) the summary's [ra] models a
             bsr that never happens; a body that really writes [ra] is still
             caught through the middle's defs *)
          let summary =
            if f.f_calls = [] then Regset.remove Reg.ra site.I.as_summary
            else site.I.as_summary
          in
          let clobbered =
            List.fold_left
              (fun acc (_, i) -> Regset.union acc (Insn.defs i))
              summary f.f_middle
          in
          let clobbered =
            Regset.remove Reg.sp (Regset.remove Reg.gp clobbered)
          in
          let live = live_at site.I.as_pc site.I.as_place in
          let required =
            match live with
            | None -> clobbered
            | Some live -> Regset.inter clobbered live
          in
          if not (Regset.subset required protected_) then
            flag "stub-saves" ~addr:ext.Om.Codegen.e_addr
              "%t: may clobber %s but only protects %s" what
              (Format.asprintf "%a" Regset.pp (Regset.diff required protected_))
              (Format.asprintf "%a" Regset.pp protected_);
          (* When saves are live-filtered, validate the specialization
             really happened: every site save must be live at the site,
             an argument register (whose original value can feed a later
             argument and so needs a slot), or the floating transfer
             scratch [$f1].  Dead spills here mean the engine fell back
             to a fixed save set. *)
          (match live with
          | Some live ->
              let allowed =
                List.fold_left
                  (fun acc k -> Regset.add (16 + k) acc)
                  (Regset.add_f 1 live)
                  (List.init site.I.as_nargs Fun.id)
              in
              if not (Regset.subset saved allowed) then
                flag "stub-saves" ~addr:ext.Om.Codegen.e_addr
                  "%t: spills dead register(s) %s" what
                  (Format.asprintf "%a" Regset.pp (Regset.diff saved allowed))
          | None -> ())
        end
  in
  (* pair each audit action with the stub extent codegen emitted for it *)
  let queues : (int * int, I.audit_site Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let key pc (place : Atom.Api.place) =
    ( pc,
      match place with
      | Atom.Api.Before -> 0
      | Atom.Api.After -> 1
      | Atom.Api.Taken_edge -> 2 )
  in
  List.iter
    (fun (s : I.audit_site) ->
      let k = key s.I.as_pc s.I.as_place in
      let q =
        match Hashtbl.find_opt queues k with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace queues k q;
            q
      in
      Queue.add s q)
    au.I.au_sites;
  let pop pc slot ext =
    match Hashtbl.find_opt queues (pc, slot) with
    | Some q when not (Queue.is_empty q) -> check_stub (Queue.pop q) ext
    | _ ->
        flag "stub-coverage" ~addr:ext.Om.Codegen.e_addr
          "stub at old pc %#x has no matching instrumentation action" pc
  in
  List.iter
    (fun (st : Om.Codegen.site) ->
      List.iter (pop st.Om.Codegen.st_pc 0) st.Om.Codegen.st_before;
      List.iter (pop st.Om.Codegen.st_pc 1) st.Om.Codegen.st_after;
      List.iter (pop st.Om.Codegen.st_pc 2) st.Om.Codegen.st_taken)
    au.I.au_layout;
  Hashtbl.iter
    (fun (pc, _) q ->
      Queue.iter
        (fun (s : I.audit_site) ->
          flag "stub-coverage" ~addr:pc
            "no stub emitted for the %s call at old pc %#x" s.I.as_proc pc)
        q)
    queues;
  { r_checks = static_checks; r_issues = List.rev !issues }

(* -- the differential runner --------------------------------------------- *)

let outcome_to_string = function
  | Machine.Sim.Exit n -> Printf.sprintf "exit %d" n
  | Machine.Sim.Fault f -> Printf.sprintf "fault: %s" (Machine.Fault.to_string f)
  | Machine.Sim.Out_of_fuel -> "out of fuel"

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let differential ?(engine = Machine.Sim.Fast)
    ?(max_insns = Machine.Sim.default_max_insns)
    ?stdin ?inputs ~original ~instrumented ~heap_mode () =
  let issues = ref [] in
  let flag check fmt =
    Printf.ksprintf
      (fun v_detail ->
        issues := { v_check = check; v_addr = None; v_detail } :: !issues)
      fmt
  in
  let run exe =
    let m = Machine.Sim.load ~engine ?stdin ?inputs exe in
    let outcome = Machine.Sim.run ~max_insns m in
    (outcome, m)
  in
  let o1, m1 = run original in
  let o2, m2 = run instrumented in
  if o1 <> o2 then
    flag "diff-exit" "uninstrumented run: %s; instrumented run: %s"
      (outcome_to_string o1) (outcome_to_string o2);
  let diff_stream check name a b =
    if a <> b then begin
      let i = first_diff a b in
      flag check "%s differs at byte %d: %S vs %S" name i
        (String.sub a i (min 24 (String.length a - i)))
        (String.sub b i (min 24 (String.length b - i)))
    end
  in
  diff_stream "diff-stdout" "stdout" (Machine.Sim.stdout m1)
    (Machine.Sim.stdout m2);
  diff_stream "diff-stderr" "stderr" (Machine.Sim.stderr m1)
    (Machine.Sim.stderr m2);
  List.iter
    (fun (name, contents) ->
      match List.assoc_opt name (Machine.Sim.output_files m2) with
      | None ->
          flag "diff-files" "output file %S missing from the instrumented run"
            name
      | Some c' ->
          if c' <> contents then
            flag "diff-files" "output file %S differs at byte %d" name
              (first_diff contents c'))
    (Machine.Sim.output_files m1);
  (* The application's heap: in partitioned mode the program break must be
     exactly what the uninstrumented run produced; in linked mode the two
     allocators share one break, so it may only grow. *)
  let app_break exe m =
    match Exe.find_symbol exe "__curbrk" with
    | Some s ->
        let v = Int64.to_int (Machine.Sim.read_u64 m s.Exe.x_addr) in
        if v = 0 then exe.Exe.x_break else v
    | None -> Machine.Sim.brk m
  in
  let b1 = app_break original m1 and b2 = app_break instrumented m2 in
  (match (heap_mode : I.heap_mode) with
  | I.Partitioned _ ->
      if b1 <> b2 then
        flag "diff-break"
          "program break %#x uninstrumented, %#x instrumented (partitioned \
           heap)"
          b1 b2
  | I.Linked ->
      if b2 < b1 then
        flag "diff-break"
          "instrumented break %#x shrank below the original %#x" b2 b1);
  { r_checks = differential_checks; r_issues = List.rev !issues }

let verify ?engine ?max_insns ?stdin ?inputs ~original ~instrumented
    ~(info : I.info) () =
  let s = check_image ~original ~instrumented ~info in
  let d =
    differential ?engine ?max_insns ?stdin ?inputs ~original ~instrumented
      ~heap_mode:info.I.i_audit.I.au_options.I.heap_mode ()
  in
  merge s d
