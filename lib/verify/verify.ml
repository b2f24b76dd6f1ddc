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

module Itbl = Hashtbl.Make (Int)

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

(* [iter_runs exe lo n ~mapped ~unmapped] walks the [n] words from [lo]
   in address order.  Each run of words that one segment maps is handed
   over whole, as [mapped bytes off addr k]: [k] words from byte [off] of
   that segment's bytes, the first at [addr]; [unmapped addr] is called
   for each word no segment maps.  So a run costs one segment lookup, and
   its words are read straight from the segment bytes. *)
let iter_runs exe lo n ~mapped ~unmapped =
  let hi = lo + (4 * n) in
  let rec go addr =
    if addr < hi then
      match seg_containing exe addr with
      | None ->
          unmapped addr;
          go (addr + 4)
      | Some s ->
          let v = s.Exe.seg_vaddr and b = s.Exe.seg_bytes in
          let stop = min hi (addr + ((v + Bytes.length b - addr) / 4 * 4)) in
          mapped b (addr - v) addr ((stop - addr) / 4);
          go stop
  in
  go lo

(* -- inserted code --------------------------------------------------------
   The decoded words of one inserted sequence, in address order, held in
   arrays that are reused from sequence to sequence. *)

type code = {
  mutable c_addr : int array;
  mutable c_insn : Insn.t array;
  mutable c_len : int;
}

let new_code () =
  { c_addr = Array.make 64 0; c_insn = Array.make 64 Insn.nop; c_len = 0 }

let push c addr insn =
  let n = c.c_len in
  if n = Array.length c.c_addr then begin
    let a = Array.make (2 * n) 0 and i = Array.make (2 * n) Insn.nop in
    Array.blit c.c_addr 0 a 0 n;
    Array.blit c.c_insn 0 i 0 n;
    c.c_addr <- a;
    c.c_insn <- i
  end;
  c.c_addr.(n) <- addr;
  c.c_insn.(n) <- insn;
  c.c_len <- n + 1

(* the instructions of a stub extent; unmapped words are dropped (the
   layout pass flags those separately) *)
let load_extent exe c (ext : Om.Codegen.extent) =
  c.c_len <- 0;
  iter_runs exe ext.Om.Codegen.e_addr (ext.Om.Codegen.e_size / 4)
    ~unmapped:ignore ~mapped:(fun b off addr k ->
      for j = 0 to k - 1 do
        push c (addr + (4 * j)) (Code.decode (Code.read_word b (off + (4 * j))))
      done)

(* -- stub parsing --------------------------------------------------------
   Every inserted code sequence — site stub or wrapper body — has the
   shape   lda sp,-N(sp) / saves / middle / restores of the same slots
   in the same order / lda sp,+N(sp).  The parser recovers the frame so
   the checker can reason about it; any deviation is itself a finding.
   [note check addr detail] reports a finding; [what ()] names the
   sequence in its detail, built only when there is one to report. *)

type frame = {
  f_saved : Regset.t;  (** registers the frame saves *)
  f_clobbers : Regset.t;  (** registers the middle defines *)
  f_calls : (int * int) list;  (** (bsr address, callee address) *)
}

(* a save or restore slot as one int: register file, register and sp
   offset, so two slots compare equal exactly when all three agree *)
let slot ~fp r disp = (disp lsl 6) lor (if fp then 32 else 0) lor r

let parse_frame ~(note : string -> int option -> string -> unit) ~what
    (c : code) =
  let n = c.c_len and addr = c.c_addr and insn = c.c_insn in
  if n = 0 then begin
    note "stub-frame" None (Printf.sprintf "%t: empty stub" what);
    None
  end
  else
    match insn.(0) with
    | Insn.Mem { op = Insn.Lda; ra; rb; disp }
      when ra = Reg.sp && rb = Reg.sp && disp <= 0 -> (
        let size = -disp in
        (* saves occupy [1, s_end): integer saves, then floating ones *)
        let rec saves_end k seen_fp =
          if k >= n then k
          else
            match insn.(k) with
            | Insn.Mem { op = Insn.Stq; rb; _ } when (not seen_fp) && rb = Reg.sp
              ->
                saves_end (k + 1) false
            | Insn.Mem { op = Insn.Stt; rb; _ } when rb = Reg.sp ->
                saves_end (k + 1) true
            | _ -> k
        in
        let s_end = saves_end 1 false in
        (* the close is the last instruction, and not one of the saves *)
        match if n - 1 >= s_end then insn.(n - 1) else Insn.nop with
        | Insn.Mem { op = Insn.Lda; ra; rb; disp = close }
          when ra = Reg.sp && rb = Reg.sp ->
            let addr_close = addr.(n - 1) in
            if close <> size then
              note "stub-frame" (Some addr_close)
                (Printf.sprintf
                   "%t: frame opened with %d bytes but closed with %d" what
                   size close);
            let nsaves = s_end - 1 in
            (* restores occupy [r_lo, n - 1): at most one per save, taken
               backwards from the close *)
            let rec restores_start k =
              if n - 1 - k < nsaves && k > s_end then
                match insn.(k - 1) with
                | Insn.Mem { op = Insn.Ldq | Insn.Ldt; rb; _ } when rb = Reg.sp
                  ->
                    restores_start (k - 1)
                | _ -> k
              else k
            in
            let r_lo = restores_start (n - 1) in
            let nrestores = n - 1 - r_lo in
            let slot_at k =
              match insn.(k) with
              | Insn.Mem { op = Insn.Stq | Insn.Ldq; ra; disp; _ } ->
                  slot ~fp:false ra disp
              | Insn.Mem { op = Insn.Stt | Insn.Ldt; ra; disp; _ } ->
                  slot ~fp:true ra disp
              | _ -> assert false
            in
            (* the same slots, restored in the order they were saved, as
               both stub generators emit them *)
            let same_slots =
              nrestores = nsaves
              &&
              let rec from j =
                j = nsaves
                || (slot_at (r_lo + j) = slot_at (1 + j) && from (j + 1))
              in
              from 0
            in
            if not same_slots then
              note "stub-saves" (Some addr_close)
                (Printf.sprintf
                   "%t: registers saved and restored differ (%d saved, %d \
                    restored)"
                   what nsaves nrestores);
            let saved = ref Regset.empty in
            for k = 1 to s_end - 1 do
              match insn.(k) with
              | Insn.Mem { op = Insn.Stt; ra; _ } -> saved := Regset.add_f ra !saved
              | Insn.Mem { ra; _ } -> saved := Regset.add ra !saved
              | _ -> ()
            done;
            (* A spliced analysis body (call_style = Inline_body) may open
               and close its own frames inside the stub; only require that
               every inner sp adjustment is a [lda sp,d(sp)] and that they
               balance before the restores run. *)
            let depth = ref 0 and clobbers = ref Regset.empty
            and calls = ref [] in
            for k = s_end to r_lo - 1 do
              let a = addr.(k) and i = insn.(k) in
              let defs = Insn.defs i in
              clobbers := Regset.union !clobbers defs;
              match i with
              | Insn.Mem { op = Insn.Lda; ra; rb; disp }
                when ra = Reg.sp && rb = Reg.sp ->
                  depth := !depth - disp;
                  if !depth < 0 then begin
                    note "stub-frame" (Some a)
                      (Printf.sprintf
                         "%t: stack pointer raised above the stub frame" what);
                    depth := 0
                  end
              | _ -> (
                  if Regset.mem Reg.sp defs then
                    note "stub-frame" (Some a)
                      (Printf.sprintf
                         "%t: stack pointer modified inside the frame" what);
                  if Regset.mem Reg.gp defs then
                    note "stub-frame" (Some a)
                      (Printf.sprintf
                         "%t: global pointer modified inside the frame" what);
                  match i with
                  | Insn.Br { link = true; disp; _ } ->
                      calls := (a, a + 4 + (4 * disp)) :: !calls
                  | _ -> ())
            done;
            if !depth <> 0 then
              note "stub-frame" (Some addr_close)
                (Printf.sprintf
                   "%t: %d bytes of inner frame still open at the restores"
                   what !depth);
            Some
              { f_saved = !saved; f_clobbers = !clobbers; f_calls = List.rev !calls }
        | _ ->
            note "stub-frame" (Some addr.(0))
              (Printf.sprintf "%t: frame is not closed by lda sp,+N(sp)" what);
            None)
    | _ ->
        note "stub-frame" (Some addr.(0))
          (Printf.sprintf "%t: does not open a frame with lda sp,-N(sp)" what);
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
  (* the audit's name -> address lists, indexed once per check; the first
     binding of a name wins, as in the lists *)
  let index l =
    let t = Hashtbl.create 64 in
    List.iter (fun (name, a) -> Hashtbl.replace t name a) (List.rev l);
    t
  in
  let wrappers = index au.I.au_wrappers and procs = index au.I.au_procs in
  let wrapper_addrs = Hashtbl.create 64 in
  List.iter (fun (_, a) -> Hashtbl.replace wrapper_addrs a ()) au.I.au_wrappers;
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
               || Hashtbl.mem wrapper_addrs t))
        then
          flag "branch-range" ~addr
            "%s: branch target %#x leaves the region [%#x, %#x)" name t lo
            (lo + size)
    in
    let check_word addr w =
      let insn = Code.decode w in
      if Code.encode insn <> w then
        flag "decode-roundtrip" ~addr
          "%s: word %#010x does not round-trip through encode/decode" name w;
      match insn with
      | Insn.Br { link; disp; _ } -> check_target ~addr ~callable:link disp
      | Insn.Cbr { disp; _ } | Insn.Fbr { disp; _ } ->
          check_target ~addr ~callable:false disp
      | _ -> ()
    in
    iter_runs instrumented lo (size / 4)
      ~unmapped:(fun addr ->
        flag "layout" ~addr "%s: address not mapped by any segment" name)
      ~mapped:(fun b off addr k ->
        for j = 0 to k - 1 do
          check_word (addr + (4 * j)) (Code.read_word b (off + (4 * j)))
        done)
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
        let body = new_code () in
        let rec collect k =
          k <= 256
          &&
          match read_word instrumented (addr + (4 * k)) with
          | None -> false
          | Some w -> (
              match Code.decode w with
              | Insn.Jump { kind = Insn.Ret; _ } -> true
              | i ->
                  push body (addr + (4 * k)) i;
                  collect (k + 1))
        in
        let r =
          if not (collect 0) then begin
            flag "stub-callee" ~addr "wrapper has no terminating ret";
            None
          end
          else
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
                Some f.f_saved
        in
        Hashtbl.replace wrapper_cache addr r;
        r
  in
  let stub = new_code () in
  let check_stub (site : I.audit_site) (ext : Om.Codegen.extent) =
    let what () =
      Printf.sprintf "stub for %s at old pc %#x" site.I.as_proc site.I.as_pc
    in
    load_extent instrumented stub ext;
    match parse_frame ~note ~what stub with
    | None -> ()
    | Some f ->
        let saved = f.f_saved in
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
                | I.Wrapper -> Hashtbl.find_opt wrappers site.I.as_proc
                | I.Inline_saves | I.Inline_body | I.Specialized -> None
              in
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
                  match Hashtbl.find_opt procs site.I.as_proc with
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
            Regset.remove Reg.sp
              (Regset.remove Reg.gp (Regset.union summary f.f_clobbers))
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
  (* pair each audit action with the stub extent codegen emitted for it;
     a queue's key is its old pc and its slot (0 before, 1 after, 2 taken
     edge) in one int *)
  let queues : I.audit_site Queue.t Itbl.t = Itbl.create 64 in
  let key pc (place : Atom.Api.place) =
    (pc lsl 2)
    lor
    match place with
    | Atom.Api.Before -> 0
    | Atom.Api.After -> 1
    | Atom.Api.Taken_edge -> 2
  in
  List.iter
    (fun (s : I.audit_site) ->
      let k = key s.I.as_pc s.I.as_place in
      let q =
        match Itbl.find_opt queues k with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Itbl.replace queues k q;
            q
      in
      Queue.add s q)
    au.I.au_sites;
  let pop pc slot ext =
    match Itbl.find_opt queues ((pc lsl 2) lor slot) with
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
  (* actions left without a stub, by old pc and slot *)
  Itbl.fold (fun k q acc -> if Queue.is_empty q then acc else (k, q) :: acc)
    queues []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (k, q) ->
         let pc = k lsr 2 in
         Queue.iter
           (fun (s : I.audit_site) ->
             flag "stub-coverage" ~addr:pc
               "no stub emitted for the %s call at old pc %#x" s.I.as_proc pc)
           q);
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
