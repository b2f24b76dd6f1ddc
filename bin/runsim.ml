(* runsim: run an executable on the machine simulator.

     runsim prog.exe [--stdin FILE] [--input NAME=FILE] [--stats]
                     [--dump-files] [--fuel N] [--engine ref|fast]
                     [--no-protect] [--max-pages N] [--stack-bytes N]
                     [--brk-max ADDR] [--strict-align]

   Exit codes follow the 128+signal convention for machine faults:
   139 segmentation violation, 135 unaligned access, 132 illegal
   instruction or bad PAL call, 159 unknown system call, 137 resident
   memory limit; 124 out of fuel, 1 load error, 2 usage. *)

let usage =
  "runsim [--stdin FILE] [--input NAME=FILE] [--stats] [--dump-files] \
   [--engine ref|fast] [--no-protect] [--max-pages N] [--stack-bytes N] \
   [--brk-max ADDR] [--strict-align] prog.exe"

let () =
  let stdin_file = ref "" in
  let inputs = ref [] in
  let stats = ref false in
  let dump = ref false in
  let fuel = ref Machine.Sim.default_max_insns in
  let engine = ref Machine.Sim.Fast in
  let protect = ref true in
  let max_pages = ref Machine.Sim.default_max_pages in
  let stack_bytes = ref Machine.Sim.default_stack_bytes in
  let brk_max = ref 0 in
  let strict_align = ref false in
  let prog = ref "" in
  Arg.parse
    [
      ("--stdin", Arg.Set_string stdin_file, "file supplying simulated stdin");
      ( "--input",
        Arg.String
          (fun s ->
            match String.index_opt s '=' with
            | Some i ->
                inputs :=
                  ( String.sub s 0 i,
                    String.sub s (i + 1) (String.length s - i - 1) )
                  :: !inputs
            | None -> raise (Arg.Bad "--input NAME=FILE")),
        "register a virtual input file" );
      ("--stats", Arg.Set stats, "print execution statistics");
      ("--dump-files", Arg.Set dump, "print files the program wrote");
      ( "--fuel",
        Arg.Set_int fuel,
        Printf.sprintf "instruction budget (default %d)"
          Machine.Sim.default_max_insns );
      ( "--engine",
        Arg.String
          (fun s ->
            match Machine.Sim.engine_of_string s with
            | Some e -> engine := e
            | None -> raise (Arg.Bad ("unknown engine " ^ s))),
        "execution engine: fast (default) or ref" );
      ( "--no-protect",
        Arg.Clear protect,
        "disable memory protection (allocate-on-touch memory)" );
      ("--max-pages", Arg.Set_int max_pages, "resident-page ceiling (4 KiB pages)");
      ("--stack-bytes", Arg.Set_int stack_bytes, "writable stack size below text");
      ("--brk-max", Arg.Set_int brk_max, "highest address brk may reach");
      ( "--strict-align",
        Arg.Set strict_align,
        "fault on naturally misaligned memory accesses" );
    ]
    (fun f -> prog := f)
    usage;
  if !prog = "" then begin
    prerr_endline usage;
    exit 2
  end;
  try
    let exe = Objfile.Exe.load !prog in
    let stdin_data =
      if !stdin_file = "" then ""
      else In_channel.with_open_bin !stdin_file In_channel.input_all
    in
    let vfs_inputs =
      List.map
        (fun (name, file) ->
          (name, In_channel.with_open_bin file In_channel.input_all))
        !inputs
    in
    let m =
      Machine.Sim.load ~engine:!engine ~stdin:stdin_data ~inputs:vfs_inputs
        ~protect:!protect ~max_pages:!max_pages ~stack_bytes:!stack_bytes
        ?brk_max:(if !brk_max > 0 then Some !brk_max else None)
        ~strict_align:!strict_align exe
    in
    let words0 = Gc.minor_words () in
    let outcome = Machine.Sim.run ~max_insns:!fuel m in
    let run_words = Gc.minor_words () -. words0 in
    print_string (Machine.Sim.stdout m);
    let err = Machine.Sim.stderr m in
    if err <> "" then Printf.eprintf "%s" err;
    if !dump then
      List.iter
        (fun (name, contents) ->
          Printf.printf "=== %s ===\n%s" name contents;
          if contents = "" || contents.[String.length contents - 1] <> '\n' then
            print_newline ())
        (Machine.Sim.output_files m);
    if !stats then begin
      let s = Machine.Sim.stats m in
      Printf.eprintf
        "insns=%d loads=%d stores=%d cond-branches=%d (taken %d) calls=%d \
         syscalls=%d\n"
        s.Machine.Sim.st_insns s.Machine.Sim.st_loads s.Machine.Sim.st_stores
        s.Machine.Sim.st_cond_branches s.Machine.Sim.st_taken
        s.Machine.Sim.st_calls s.Machine.Sim.st_syscalls;
      let built, leaders = Machine.Sim.blocks_translated m in
      let decoded, words = Machine.Sim.words_decoded m in
      Printf.eprintf
        "blocks translated / leaders: %d / %d; code words decoded / total: \
         %d / %d\n"
        built leaders decoded words;
      Printf.eprintf "host minor words in Sim.run: %.0f (%.4f per instruction)\n"
        run_words
        (run_words /. float_of_int (max 1 s.Machine.Sim.st_insns))
    end;
    match outcome with
    | Machine.Sim.Exit n -> exit n
    | Machine.Sim.Fault f ->
        Printf.eprintf "fault: %s\n" (Machine.Fault.to_string f);
        exit (Machine.Fault.exit_code f)
    | Machine.Sim.Out_of_fuel ->
        prerr_endline "out of fuel";
        exit 124
  with
  | Sys_error m | Objfile.Wire.Corrupt m | Failure m | Invalid_argument m ->
    prerr_endline m;
    exit 1
