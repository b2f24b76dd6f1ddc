(* Instrumentation-throughput invariants.

   The content-addressed toolchain caches must be transparent: under
   every option set, an instrumentation served from warm caches is
   byte-identical, audit included, to one computed from empty caches.
   They must behave as caches: a warm repeat is all hits, and changing
   an option that is part of the content key is a miss.  The
   worklist liveness solver must compute the dense fixpoint's table. *)

module I = Atom.Instrument

let apply ?options name w_name =
  let tool = Option.get (Tools.Registry.find name) in
  let w = Option.get (Workloads.find w_name) in
  let exe = Workloads.compile w in
  Tools.Tool.apply ?options tool exe

let exe_bytes = Objfile.Exe.to_string

let clear_caches () =
  Atom.Toolcache.clear ();
  Rtlib.clear_cache ()

(* -- cache identity ------------------------------------------------------ *)

let test_cold_warm_identity () =
  clear_caches ();
  let exe1, info1 = apply "branch" "sieve" in
  let exe2, info2 = apply "branch" "sieve" in
  Alcotest.(check bool) "warm image byte-identical to cold" true
    (exe_bytes exe1 = exe_bytes exe2);
  Alcotest.(check bool) "warm audit identical to cold" true
    (Matrix.norm_audit info1.I.i_audit = Matrix.norm_audit info2.I.i_audit)

(* each cell under each option set, from empty caches and then warm *)
let test_option_set_identity () =
  List.iter
    (fun (tname, wname) ->
      List.iteri
        (fun k options ->
          clear_caches ();
          let e_cold, i_cold = apply ~options tname wname in
          let e_warm, i_warm = apply ~options tname wname in
          let cell = Printf.sprintf "%s/%s, option set %d" tname wname k in
          Alcotest.(check bool) (cell ^ ": warm image byte-identical to cold")
            true
            (exe_bytes e_cold = exe_bytes e_warm);
          Alcotest.(check bool) (cell ^ ": warm audit identical to cold") true
            (Matrix.norm_audit i_cold.I.i_audit = Matrix.norm_audit i_warm.I.i_audit))
        Matrix.option_matrix)
    [ ("branch", "sieve"); ("malloc", "qsort"); ("unalign", "sieve") ]

let test_cache_accounting () =
  clear_caches ();
  let m0 = Atom.Toolcache.misses () in
  ignore (apply "branch" "sieve");
  let h1 = Atom.Toolcache.hits () and m1 = Atom.Toolcache.misses () in
  Alcotest.(check bool) "cold run misses" true (m1 > m0);
  ignore (apply "branch" "sieve");
  let h2 = Atom.Toolcache.hits () and m2 = Atom.Toolcache.misses () in
  Alcotest.(check bool) "warm run hits" true (h2 > h1);
  Alcotest.(check int) "warm run misses nothing" m1 m2;
  (* the option fingerprint is part of the content key: same tool, same
     application, different options must rebuild, not replay *)
  ignore
    (apply
       ~options:{ I.default_options with I.save_strategy = I.Save_all }
       "branch" "sieve");
  let m3 = Atom.Toolcache.misses () in
  Alcotest.(check bool) "changed option key misses" true (m3 > m2)

(* every tool instruments one application under [Specialized] and the
   verifier checks each image: the instrumentation engine and the
   verifier share one liveness table, built once *)
let test_liveness_once_per_application () =
  clear_caches ();
  let exe = Workloads.compile (Option.get (Workloads.find "qsort")) in
  let options = { I.default_options with I.call_style = I.Specialized } in
  let live0 = Atom.Toolcache.misses ~kind:"live" ()
  and hits0 = Atom.Toolcache.hits ~kind:"live" () in
  List.iter
    (fun tool ->
      let exe', info = Tools.Tool.apply ~options tool exe in
      let rep = Verify.check_image ~original:exe ~instrumented:exe' ~info in
      if not (Verify.ok rep) then
        Alcotest.failf "%s: %s" tool.Tools.Tool.name
          (Verify.report_to_string rep))
    Tools.Registry.all;
  Alcotest.(check int) "one liveness miss for the whole sweep" 1
    (Atom.Toolcache.misses ~kind:"live" () - live0);
  Alcotest.(check int) "every other instrumentation and check hits it"
    ((2 * List.length Tools.Registry.all) - 1)
    (Atom.Toolcache.hits ~kind:"live" () - hits0);
  Atom.Toolcache.clear ();
  Alcotest.(check int) "clear empties every table" 0 (Atom.Toolcache.size ())

(* -- worklist liveness vs dense fixpoint --------------------------------- *)

let test_liveness_equivalence () =
  List.iter
    (fun wname ->
      let exe = Workloads.compile (Option.get (Workloads.find wname)) in
      let prog = Om.Build.program exe in
      let fast = Om.Liveness.compute prog in
      let dense = Oracle.compute_ref prog in
      Alcotest.(check int)
        (wname ^ ": table sizes")
        (Hashtbl.length dense) (Hashtbl.length fast);
      Hashtbl.iter
        (fun pc s ->
          match Hashtbl.find_opt fast pc with
          | None ->
              Alcotest.fail (Printf.sprintf "%s: missing pc %#x" wname pc)
          | Some s' ->
              if not (Alpha.Regset.equal s s') then
                Alcotest.fail
                  (Printf.sprintf "%s: live sets differ at %#x" wname pc))
        dense)
    [ "sieve"; "qsort"; "compress" ]

(* -- popcount regsets ---------------------------------------------------- *)

let arbitrary_regset =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 40) (int_range 0 31) >>= fun is ->
      list_size (int_bound 40) (int_range 0 31) >|= fun fs ->
      List.fold_left
        (fun s r -> Alpha.Regset.add_f r s)
        (Alpha.Regset.of_list is) fs)
  in
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Alpha.Regset.pp s)
    gen

let prop_cardinal =
  QCheck.Test.make ~count:500 ~name:"cardinal = |ints| + |fps|"
    arbitrary_regset (fun s ->
      Alpha.Regset.cardinal s
      = List.length (Alpha.Regset.ints s) + List.length (Alpha.Regset.fps s))

let prop_folds =
  QCheck.Test.make ~count:500
    ~name:"fold_ints/fold_fps enumerate members ascending" arbitrary_regset
    (fun s ->
      List.rev (Alpha.Regset.fold_ints (fun r acc -> r :: acc) s [])
      = Alpha.Regset.ints s
      && List.rev (Alpha.Regset.fold_fps (fun r acc -> r :: acc) s [])
         = Alpha.Regset.fps s)

(* -- the IR builder's decode memo ----------------------------------------- *)

let arbitrary_word =
  QCheck.(
    make
      Gen.(int_bound 0xFFFFFFF >|= fun n -> n * 2654435761 land 0xFFFFFFFF))

let prop_decode_memo =
  QCheck.Test.make ~count:2000 ~name:"decode memo agrees with plain decode"
    arbitrary_word (fun w ->
      Alpha.Code.decode_cached w = Alpha.Code.decode w)

let () =
  Alcotest.run "perf-pipeline"
    [
      ( "caches",
        [
          Alcotest.test_case "cold-then-warm byte identity" `Quick
            test_cold_warm_identity;
          Alcotest.test_case "cold-then-warm, every option set" `Quick
            test_option_set_identity;
          Alcotest.test_case "hit/miss accounting and option keys" `Quick
            test_cache_accounting;
          Alcotest.test_case "liveness computed once per application" `Quick
            test_liveness_once_per_application;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "worklist matches dense fixpoint" `Quick
            test_liveness_equivalence;
        ] );
      ( "regset",
        List.map QCheck_alcotest.to_alcotest [ prop_cardinal; prop_folds ] );
      ( "decode-memo",
        List.map QCheck_alcotest.to_alcotest [ prop_decode_memo ] );
    ]
