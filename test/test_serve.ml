(* atomd serving-mode suite: concurrent clients against an in-process
   daemon, byte-for-byte parity with the single-process pipeline,
   deterministic cache accounting under contention, persistence across a
   daemon restart, fail-closed per-request ceilings, and the toolcache
   regressions (weak digest memo, fresh per-request IR views, one fuel
   default). *)

let temp_dir () =
  let d = Filename.temp_file "atom-serve-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_server ?config ?cache_dir f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "atomd.sock" in
  let t = Serve.start ?config ?cache_dir ~socket:sock () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop t;
      rm_rf dir)
    (fun () -> f sock t)

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> Alcotest.failf "no workload %s" name

let tool name =
  match Tools.Registry.find name with
  | Some t -> t
  | None -> Alcotest.failf "no tool %s" name

(* -- byte parity with the single-process pipeline ----------------------- *)

let test_parity () =
  let exe = Workloads.compile (workload "qsort") in
  let exe_bytes = Objfile.Exe.to_string exe in
  let local_exe', _ = Tools.Tool.apply (tool "prof") exe in
  let local_bytes = Objfile.Exe.to_string local_exe' in
  let local_outcome, local_m = Workloads.run_exe local_exe' in
  with_server (fun sock _t ->
      let c = Serve.Client.connect sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let digest, image = Serve.Client.instrument c ~tool:"prof" exe_bytes in
      Alcotest.(check bool) "image bytes match single-process pipeline" true
        (String.equal image local_bytes);
      Alcotest.(check string) "digest is of the image bytes"
        (Digest.to_hex (Digest.string local_bytes))
        digest;
      let r = Serve.Client.run c (Serve.Protocol.Image digest) in
      (match (r.Serve.Protocol.rr_outcome, local_outcome) with
      | Serve.Protocol.W_exit a, Machine.Sim.Exit b ->
          Alcotest.(check int) "exit code" b a
      | _ -> Alcotest.fail "expected clean exits on both paths");
      Alcotest.(check string) "stdout bytes"
        (Machine.Sim.stdout local_m)
        r.Serve.Protocol.rr_stdout;
      Alcotest.(check int) "instruction counts"
        (Machine.Sim.stats local_m).Machine.Sim.st_insns
        r.Serve.Protocol.rr_stats.Machine.Sim.st_insns)

(* -- concurrent clients, identical keys --------------------------------- *)

(* four clients race to instrument the same (exe, tool, options) key: the
   in-flight dedup must build once — exactly 4 cache misses (finished
   image, program, analysis module, final link) with the other three
   clients waiting on the in-flight image build and hitting it — and
   everyone gets byte-identical images *)
let test_identical_keys () =
  let exe = Workloads.compile (workload "cover") in
  let exe_bytes = Objfile.Exe.to_string exe in
  let n = 4 in
  with_server (fun sock _t ->
      let hits0 = Atom.Toolcache.hits ()
      and misses0 = Atom.Toolcache.misses () in
      let doms =
        List.init n (fun _ ->
            Domain.spawn (fun () ->
                let c = Serve.Client.connect sock in
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                @@ fun () ->
                let _digest, image =
                  Serve.Client.instrument c ~tool:"branch" exe_bytes
                in
                image))
      in
      let images = List.map Domain.join doms in
      let first = List.hd images in
      List.iteri
        (fun i img ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d image identical" i)
            true (String.equal first img))
        images;
      Alcotest.(check int) "misses: one build per cache kind" 4
        (Atom.Toolcache.misses () - misses0);
      Alcotest.(check int) "hits: every other request waited and hit" (n - 1)
        (Atom.Toolcache.hits () - hits0))

(* -- concurrent clients, distinct keys ----------------------------------- *)

let test_distinct_keys () =
  let exe = Workloads.compile (workload "sieve") in
  let exe_bytes = Objfile.Exe.to_string exe in
  let tools = [ "syscall"; "malloc"; "unalign"; "io" ] in
  let expected =
    List.map
      (fun tn ->
        ( tn,
          Objfile.Exe.to_string
            (fst
               (Tools.Tool.apply ~options:Atom.Instrument.default_options
                  (tool tn) exe)) ))
      tools
  in
  (* the local runs above warmed every key; serve them all concurrently
     and check each client gets its own tool's image, not a neighbour's *)
  with_server (fun sock _t ->
      let doms =
        List.map
          (fun tn ->
            Domain.spawn (fun () ->
                let c = Serve.Client.connect sock in
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                @@ fun () ->
                let _d, image = Serve.Client.instrument c ~tool:tn exe_bytes in
                (tn, image)))
          tools
      in
      let got = List.map Domain.join doms in
      List.iter
        (fun (tn, image) ->
          let want = List.assoc tn expected in
          Alcotest.(check bool)
            (Printf.sprintf "tool %s image matches local pipeline" tn)
            true
            (String.equal want image))
        got)

(* -- persistence across a daemon restart --------------------------------- *)

let test_persistent_store () =
  let exe = Workloads.compile (workload "perm") in
  let exe_bytes = Objfile.Exe.to_string exe in
  let store = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Atom.Toolcache.set_store None;
      rm_rf store)
    (fun () ->
      let first =
        with_server ~cache_dir:store (fun sock _t ->
            let c = Serve.Client.connect sock in
            Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
            snd (Serve.Client.instrument c ~tool:"pipe" exe_bytes))
      in
      (* a "restarted" daemon: in-memory cache dropped, same store dir *)
      Atom.Toolcache.clear ();
      let disk0 = Atom.Toolcache.disk_hits ()
      and misses0 = Atom.Toolcache.misses () in
      let second =
        with_server ~cache_dir:store (fun sock _t ->
            let c = Serve.Client.connect sock in
            Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
            snd (Serve.Client.instrument c ~tool:"pipe" exe_bytes))
      in
      Alcotest.(check bool) "restarted daemon serves identical bytes" true
        (String.equal first second);
      let disk_served = Atom.Toolcache.disk_hits () - disk0 in
      Alcotest.(check int) "the finished image came straight from disk" 1
        disk_served;
      Alcotest.(check int) "nothing was rebuilt" 0
        (Atom.Toolcache.misses () - misses0))

(* -- fail-closed ceilings ------------------------------------------------ *)

(* a hostile request (absurd page ceiling) faults closed with a
   structured mem-limit fault; the same connection — hence the same
   worker — then serves normal requests, so one poisoned job cannot take
   a worker down *)
let test_ceilings () =
  let exe = Workloads.compile (workload "qsort") in
  let exe_bytes = Objfile.Exe.to_string exe in
  with_server (fun sock _t ->
      let c = Serve.Client.connect sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let digest = Serve.Client.load_image c exe_bytes in
      let starved =
        Serve.Client.run c
          ~ceilings:{ Serve.Protocol.no_ceilings with rc_max_pages = 2 }
          (Serve.Protocol.Image digest)
      in
      (match starved.Serve.Protocol.rr_outcome with
      | Serve.Protocol.W_fault { kind; _ } ->
          Alcotest.(check string) "page-starved run faults closed" "mem-limit"
            kind
      | _ -> Alcotest.fail "expected a mem-limit fault");
      let fuel_starved =
        Serve.Client.run c
          ~ceilings:{ Serve.Protocol.no_ceilings with rc_max_insns = 1_000 }
          (Serve.Protocol.Image digest)
      in
      (match fuel_starved.Serve.Protocol.rr_outcome with
      | Serve.Protocol.W_out_of_fuel -> ()
      | _ -> Alcotest.fail "expected the run to hit the fuel ceiling");
      (* an unknown tool is an Error reply, not a dead connection *)
      (match
         Serve.Client.instrument c ~tool:"no-such-tool" exe_bytes
       with
      | _ -> Alcotest.fail "unknown tool must be rejected"
      | exception Serve.Server_error _ -> ());
      (* the same worker, same connection, still serves healthy requests *)
      let ok = Serve.Client.run c (Serve.Protocol.Image digest) in
      (match ok.Serve.Protocol.rr_outcome with
      | Serve.Protocol.W_exit 0 -> ()
      | _ -> Alcotest.fail "healthy run after faulted runs must succeed");
      let s = Serve.Client.stats c in
      Alcotest.(check bool) "errors were counted" true
        (s.Serve.Protocol.sr_errors >= 1))

(* loading bytes whose digest is already registered returns that digest
   and registers nothing new *)
let test_load_twice () =
  let exe_bytes = Objfile.Exe.to_string (Workloads.compile (workload "cover")) in
  with_server (fun sock _t ->
      let c = Serve.Client.connect sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let first = Serve.Client.load_image c exe_bytes in
      let images = (Serve.Client.stats c).Serve.Protocol.sr_images in
      let second = Serve.Client.load_image c exe_bytes in
      Alcotest.(check string) "same digest" first second;
      Alcotest.(check int) "no new image" images
        (Serve.Client.stats c).Serve.Protocol.sr_images)

(* -- toolcache regressions (satellites) ---------------------------------- *)

(* digesting a stream of distinct executables must not retain them: the
   identity memo holds weak slots only *)
let test_digest_memo_retention () =
  let base = Workloads.compile (workload "bitvec") in
  let n = 200 in
  let freed = ref 0 in
  for _ = 1 to n do
    let exe = { base with Objfile.Exe.x_entry = base.Objfile.Exe.x_entry } in
    Gc.finalise (fun _ -> incr freed) exe;
    ignore (Atom.Toolcache.exe_digest exe)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool)
    (Printf.sprintf "digested executables were collected (%d/%d freed)" !freed
       n)
    true
    (!freed >= n - 8)

(* two domains hammer Toolcache.program for one executable, each mutating
   the view it got; every fetch must observe pristine (empty) action
   slots *)
let test_fresh_program_views () =
  let exe = Workloads.compile (workload "hashtab") in
  let iters = 50 in
  let worker () =
    Domain.spawn (fun () ->
        let dirty = ref 0 in
        for _ = 1 to iters do
          let prog = Atom.Toolcache.program exe in
          Om.Ir.iter_insts prog (fun _ _ i ->
              if i.Om.Ir.i_before <> [] || i.Om.Ir.i_after <> [] then
                incr dirty);
          (* scribble on our private view *)
          Om.Ir.iter_insts prog (fun _ _ i ->
              Om.Ir.add_before i (Om.Ir.stub_of_insns []))
        done;
        !dirty)
  in
  let a = worker () and b = worker () in
  let dirty = Domain.join a + Domain.join b in
  Alcotest.(check int) "no fetch ever observed another view's stubs" 0 dirty

let test_one_fuel_default () =
  Alcotest.(check int) "the one documented fuel default" 1_000_000_000
    Machine.Sim.default_max_insns

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "pipeline parity" `Quick test_parity;
          Alcotest.test_case "identical keys, 4 clients" `Quick
            test_identical_keys;
          Alcotest.test_case "distinct keys, 4 clients" `Quick
            test_distinct_keys;
          Alcotest.test_case "persistent store, daemon restart" `Quick
            test_persistent_store;
          Alcotest.test_case "fail-closed ceilings" `Quick test_ceilings;
          Alcotest.test_case "identical bytes loaded twice" `Quick
            test_load_twice;
        ] );
      ( "toolcache",
        [
          Alcotest.test_case "digest memo retains nothing" `Quick
            test_digest_memo_retention;
          Alcotest.test_case "fresh per-request IR views" `Quick
            test_fresh_program_views;
          Alcotest.test_case "one fuel default" `Quick test_one_fuel_default;
        ] );
    ]
