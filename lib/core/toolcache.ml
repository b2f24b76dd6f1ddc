type prepared = {
  pr_pl : Linker.Link.placement;
  pr_summaries : Om.Dataflow.t;
  pr_img : Linker.Link.image;
  pr_text_base : int;
}

type linked = {
  ln_img : Linker.Link.image;
  ln_blob : bytes;
}

(* One lock guards every table, counter and memo in this module.  The
   cache is shared by every worker domain of a serving process, so all
   mutation happens under [lock]; builds run outside it (see [lookup]),
   coordinated through [pending] so concurrent requests for one key
   build it exactly once. *)
let lock = Mutex.create ()
let built = Condition.create ()
let pending : (string, unit) Hashtbl.t = Hashtbl.create 8

let table : (string, prepared) Hashtbl.t = Hashtbl.create 16
let programs : (string, Om.Ir.program) Hashtbl.t = Hashtbl.create 16
let lives : (string, (int, Alpha.Regset.t) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 16
let links : (string, linked) Hashtbl.t = Hashtbl.create 16
let images : (string, string * string) Hashtbl.t = Hashtbl.create 16

let hit_count = ref 0
let miss_count = ref 0
let disk_hit_count = ref 0

(* the same two counts per entry kind *)
let kind_hits : (string, int) Hashtbl.t = Hashtbl.create 8
let kind_misses : (string, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* callers hold [lock] *)
let count total per_kind kind =
  incr total;
  Hashtbl.replace per_kind kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind kind))

let read total per_kind kind =
  locked (fun () ->
      match kind with
      | None -> !total
      | Some k -> Option.value ~default:0 (Hashtbl.find_opt per_kind k))

let hits ?kind () = read hit_count kind_hits kind
let misses ?kind () = read miss_count kind_misses kind

let disk_hits () = locked (fun () -> !disk_hit_count)

let size () =
  locked (fun () ->
      Hashtbl.length table + Hashtbl.length programs + Hashtbl.length lives
      + Hashtbl.length links + Hashtbl.length images)

(* -- persistent store ---------------------------------------------------

   Entries are written through to an on-disk content-addressed store when
   one is configured, so the cache survives the process and is shared by
   every worker of a daemon (and by successive daemon restarts).  One
   entry per file, named by the kind tag plus the hex digest of the
   content key; a write is a temp file in the same directory renamed into
   place, so concurrent writers (other domains, other processes) can
   never expose a torn entry.  Values are marshalled behind a header that
   records the format version, the OCaml version (Marshal is not stable
   across compilers) and the full key; any mismatch — or any read error
   at all — is treated as a miss and the entry rebuilt.  Correctness
   never depends on the store: cold and warm paths produce byte-identical
   images (enforced by the tests and by `bench serve`). *)

let store_magic = "ATOMTC/2"
let store_dir : string option ref = ref None
let store_seq = ref 0

let set_store dir =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  locked (fun () -> store_dir := dir)

let store () = locked (fun () -> !store_dir)

let entry_path dir ~kind key =
  Filename.concat dir (kind ^ "-" ^ Digest.to_hex (Digest.string key))

let disk_get ~kind key =
  match store () with
  | None -> None
  | Some dir -> (
      let path = entry_path dir ~kind key in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              try
                let magic = input_line ic in
                let version = input_line ic in
                let klen = int_of_string (input_line ic) in
                let kbuf = really_input_string ic klen in
                if
                  magic = store_magic
                  && version = Sys.ocaml_version
                  && kbuf = key
                then Some (Marshal.from_channel ic)
                else None
              with _ -> None))

let disk_put ~kind key v =
  match store () with
  | None -> ()
  | Some dir -> (
      try
        let payload = Marshal.to_string v [] in
        let seq = locked (fun () -> incr store_seq; !store_seq) in
        let tmp =
          Filename.concat dir
            (Printf.sprintf ".tmp-%d-%d-%d" (Unix.getpid ())
               (Domain.self () :> int)
               seq)
        in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Printf.fprintf oc "%s\n%s\n%d\n%s" store_magic Sys.ocaml_version
              (String.length key) key;
            output_string oc payload);
        Sys.rename tmp (entry_path dir ~kind key)
      with _ -> ())
(* values that cannot marshal (or a full disk) simply stay memory-only *)

(* -- identity-digest memos -----------------------------------------------

   Content keys are digests of serialised values; serialising the same
   immutable executable or unit on every call would cost more than some
   of the lookups it guards, so digests are memoized by physical
   identity.  The memo is a fixed ring of *weak* slots: it can never
   retain an executable a long-lived server has otherwise dropped
   (regression-tested in test_serve), and it is bounded regardless. *)

let memo_slots = 64

type 'a weak_memo = {
  wm_keys : 'a Weak.t;
  wm_digests : string array;
  mutable wm_next : int;
}

let make_memo () =
  {
    wm_keys = Weak.create memo_slots;
    wm_digests = Array.make memo_slots "";
    wm_next = 0;
  }

let exe_digests : Objfile.Exe.t weak_memo = make_memo ()
let unit_digests : Objfile.Unit_file.t weak_memo = make_memo ()

let memo_find m v =
  let rec go i =
    if i >= memo_slots then None
    else
      match Weak.get m.wm_keys i with
      | Some v' when v' == v -> Some m.wm_digests.(i)
      | _ -> go (i + 1)
  in
  go 0

let memo_add m v d =
  let i = m.wm_next in
  Weak.set m.wm_keys i (Some v);
  m.wm_digests.(i) <- d;
  m.wm_next <- (i + 1) mod memo_slots

let memo_reset m =
  Weak.fill m.wm_keys 0 memo_slots None;
  Array.fill m.wm_digests 0 memo_slots "";
  m.wm_next <- 0

let identity_memo memo serialize v =
  match locked (fun () -> memo_find memo v) with
  | Some d -> d
  | None ->
      (* serialisation runs outside the lock; a racing domain may compute
         the same digest twice, which is merely wasted work *)
      let d = Digest.string (serialize v) in
      locked (fun () ->
          (match memo_find memo v with
          | Some _ -> ()
          | None -> memo_add memo v d);
          d)

let exe_digest exe = identity_memo exe_digests Objfile.Exe.to_string exe
let unit_digest u = identity_memo unit_digests Objfile.Unit_file.to_string u

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset programs;
      Hashtbl.reset lives;
      Hashtbl.reset links;
      Hashtbl.reset images;
      memo_reset exe_digests;
      memo_reset unit_digests)

(* -- lookup --------------------------------------------------------------

   Double-checked with in-flight deduplication: a miss publishes the key
   in [pending] and builds outside the lock; concurrent requests for the
   same key wait on [built] instead of duplicating the work, then take
   the entry as a hit.  Accounting is therefore deterministic even under
   contention: N concurrent first requests for one key are exactly one
   miss and N-1 hits.  A build that raises publishes nothing and wakes
   the waiters so one of them retries. *)
let lookup tbl ~kind key build =
  let slot = kind ^ "\000" ^ key in
  Mutex.lock lock;
  let rec await () =
    match Hashtbl.find_opt tbl key with
    | Some v ->
        count hit_count kind_hits kind;
        Mutex.unlock lock;
        v
    | None ->
        if Hashtbl.mem pending slot then begin
          Condition.wait built lock;
          await ()
        end
        else begin
          Hashtbl.add pending slot ();
          Mutex.unlock lock;
          let publish counted v =
            Mutex.lock lock;
            counted ();
            Hashtbl.remove pending slot;
            Hashtbl.replace tbl key v;
            Condition.broadcast built;
            Mutex.unlock lock;
            v
          in
          match disk_get ~kind key with
          | Some v -> publish (fun () -> incr disk_hit_count) v
          | None -> (
              match build () with
              | v ->
                  disk_put ~kind key v;
                  publish (fun () -> count miss_count kind_misses kind) v
              | exception e ->
                  Mutex.lock lock;
                  Hashtbl.remove pending slot;
                  Condition.broadcast built;
                  Mutex.unlock lock;
                  raise e)
        end
  in
  await ()

let find_or_add key build = lookup table ~kind:"anal" key build
let find_or_add_linked key build = lookup links ~kind:"link" key build

(* The whole-image cache sits above the three pipeline caches: a serving
   daemon keys the complete instrumented image by (executable digest,
   tool, option fingerprint), so a repeat request skips even the
   per-request splice and codegen, not just the shared preparation.
   Values are (image digest, image bytes) — trivially marshallable, so a
   restarted daemon serves repeat instrumentations straight from disk. *)
let find_or_add_image key build = lookup images ~kind:"image" key build

let program exe =
  lookup programs ~kind:"prog" (exe_digest exe) (fun () -> Om.Build.program exe)

let liveness exe =
  lookup lives ~kind:"live" (exe_digest exe) (fun () ->
      Om.Liveness.compute (program exe))
