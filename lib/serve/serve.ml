(* atomd: the concurrent instrumentation-and-simulation service.

   One process, one listening Unix-domain socket, N worker domains.
   Every worker accepts connections from the shared listening socket and
   serves each connection's requests in order; concurrency comes from
   concurrent connections.  All workers share one process-wide
   content-addressed toolchain cache ({!Atom.Toolcache}, storage-backed
   when a cache directory is configured) and one registry of prepared
   simulator images ({!Machine.Sim.prepare}), so the daemon instruments
   each distinct (executable, tool, options) key once and parses each
   distinct image once, no matter how many clients ask.

   Fail-closed discipline: every request is answered; an internal
   exception becomes an [Error] reply and the worker survives; run
   requests execute under per-request ceilings (fuel, resident pages,
   brk span) clamped to the server's configured maxima, so a hostile
   request faults closed instead of starving the fleet. *)

module Protocol = Protocol

type config = {
  workers : int;  (** worker domains accepting connections *)
  max_insns : int;  (** hard per-request fuel ceiling *)
  max_pages : int;  (** hard per-request resident-page ceiling *)
  brk_span : int;  (** hard per-request brk roam above the break *)
  max_images : int;  (** prepared-image registry bound (FIFO eviction) *)
}

let default_config =
  {
    workers = 4;
    max_insns = Machine.Sim.default_max_insns;
    max_pages = Machine.Sim.default_max_pages;
    brk_span = Machine.Sim.default_brk_span;
    max_images = 256;
  }

type t = {
  cfg : config;
  sock : Unix.file_descr;
  path : string;
  stop : bool Atomic.t;
  jobs : int Atomic.t;
  errors : int Atomic.t;
  (* digest -> (prepared image, raw AEXE2 bytes); FIFO-bounded *)
  reg_lock : Mutex.t;
  registry : (string, Machine.Sim.image * string) Hashtbl.t;
  reg_order : string Queue.t;
  mutable domains : unit Domain.t list;
}

let digest_hex s = Digest.to_hex (Digest.string s)

let registry_add t digest v =
  Mutex.lock t.reg_lock;
  if not (Hashtbl.mem t.registry digest) then begin
    Hashtbl.replace t.registry digest v;
    Queue.push digest t.reg_order;
    while Hashtbl.length t.registry > t.cfg.max_images do
      let old = Queue.pop t.reg_order in
      Hashtbl.remove t.registry old
    done
  end;
  Mutex.unlock t.reg_lock

let registry_find t digest =
  Mutex.lock t.reg_lock;
  let v = Hashtbl.find_opt t.registry digest in
  Mutex.unlock t.reg_lock;
  v

let registry_size t =
  Mutex.lock t.reg_lock;
  let n = Hashtbl.length t.registry in
  Mutex.unlock t.reg_lock;
  n

exception Request_error of string

let reject fmt = Printf.ksprintf (fun m -> raise (Request_error m)) fmt

(* resolve a request's executable: inline bytes whose digest is not
   registered yet are parsed, prepared and registered, so later requests
   can refer to the digest; a digest must already be in the registry *)
let resolve_image t (r : Protocol.image_ref) =
  match r with
  | Protocol.Inline bytes ->
      let digest = digest_hex bytes in
      (match registry_find t digest with
      | Some (im, _) -> (digest, im)
      | None ->
          let exe =
            try Objfile.Exe.of_string bytes
            with e -> reject "bad image: %s" (Printexc.to_string e)
          in
          let im = Machine.Sim.prepare exe in
          registry_add t digest (im, bytes);
          (digest, im))
  | Protocol.Image digest -> (
      match registry_find t digest with
      | Some (im, _) -> (digest, im)
      | None -> reject "unknown image %s" digest)

let wire_outcome = function
  | Machine.Sim.Exit code -> Protocol.W_exit code
  | Machine.Sim.Fault f ->
      Protocol.W_fault
        { kind = Machine.Fault.kind f; detail = Machine.Fault.to_string f }
  | Machine.Sim.Out_of_fuel -> Protocol.W_out_of_fuel

(* a requested ceiling of 0 (or less) means "the server's default"; any
   explicit request is clamped to the configured maximum *)
let clamp ~hard req = if req <= 0 then hard else min req hard

let handle_run t ~image ~stdin ~(ceilings : Protocol.ceilings) ~engine =
  let _digest, im = resolve_image t image in
  let exe = Machine.Sim.image_exe im in
  let max_insns = clamp ~hard:t.cfg.max_insns ceilings.rc_max_insns in
  let max_pages = clamp ~hard:t.cfg.max_pages ceilings.rc_max_pages in
  let brk_hard = exe.Objfile.Exe.x_break + t.cfg.brk_span in
  let brk_max = clamp ~hard:brk_hard ceilings.rc_brk_max in
  let m = Machine.Sim.start ~engine ~stdin ~max_pages ~brk_max im in
  let outcome = Machine.Sim.run ~max_insns m in
  Protocol.Ran
    {
      rr_outcome = wire_outcome outcome;
      rr_stats = Machine.Sim.stats m;
      rr_stdout = Machine.Sim.stdout m;
      rr_stderr = Machine.Sim.stderr m;
    }

let options_fingerprint options =
  let b = Buffer.create 8 in
  Protocol.put_options b options;
  Buffer.contents b

let handle_instrument t ~tool ~options ~exe =
  (* the whole job is content-addressed: instrumentation is
     deterministic, so (executable digest, tool, option fingerprint)
     names the finished image.  A repeat request — from any client, any
     worker, or a restarted daemon with the same store — is a pure cache
     lookup that never touches the toolchain. *)
  let exe_key =
    match exe with
    | Protocol.Inline bytes -> digest_hex bytes
    | Protocol.Image digest -> digest
  in
  let key =
    String.concat "\000" [ exe_key; tool; options_fingerprint options ]
  in
  let digest, bytes' =
    Atom.Toolcache.find_or_add_image key (fun () ->
        let _digest, im = resolve_image t exe in
        let tool_t =
          match Tools.Registry.find tool with
          | Some tl -> tl
          | None -> reject "unknown tool %S" tool
        in
        let exe', _info =
          Tools.Tool.apply ~options tool_t (Machine.Sim.image_exe im)
        in
        let bytes' = Objfile.Exe.to_string exe' in
        (digest_hex bytes', bytes'))
  in
  (* register the instrumented image pre-prepared, so the natural
     instrument-then-run-many flow never re-parses it *)
  (match registry_find t digest with
  | Some _ -> ()
  | None ->
      registry_add t digest
        (Machine.Sim.prepare (Objfile.Exe.of_string bytes'), bytes'));
  Protocol.Instrumented { digest; image = bytes' }

let handle_stats t =
  Protocol.Stats_reply
    {
      sr_hits = Atom.Toolcache.hits ();
      sr_misses = Atom.Toolcache.misses ();
      sr_disk_hits = Atom.Toolcache.disk_hits ();
      sr_entries = Atom.Toolcache.size ();
      sr_images = registry_size t;
      sr_jobs = Atomic.get t.jobs;
      sr_errors = Atomic.get t.errors;
      sr_workers = t.cfg.workers;
    }

let handle_request t = function
  | Protocol.Instrument { tool; options; exe } ->
      handle_instrument t ~tool ~options ~exe
  | Protocol.Run { image; stdin; ceilings; engine } ->
      handle_run t ~image ~stdin ~ceilings ~engine
  | Protocol.Load_image bytes ->
      let digest, _im = resolve_image t (Protocol.Inline bytes) in
      Protocol.Loaded { digest }
  | Protocol.Stats -> handle_stats t
  | Protocol.Shutdown ->
      Atomic.set t.stop true;
      Protocol.Shutting_down

(* serve one connection: request frames in, reply frames out, until EOF.
   Every exception a request raises is converted to an [Error] reply —
   one poisoned request (hostile image, unknown tool, ceiling fault
   during load) never takes the worker down. *)
let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some payload ->
        Atomic.incr t.jobs;
        let reply =
          match
            let req = Protocol.decode_request payload in
            handle_request t req
          with
          | reply -> reply
          | exception Request_error m ->
              Atomic.incr t.errors;
              Protocol.Error m
          | exception Protocol.Malformed m ->
              Atomic.incr t.errors;
              Protocol.Error ("malformed request: " ^ m)
          | exception e ->
              Atomic.incr t.errors;
              Protocol.Error (Printexc.to_string e)
        in
        Protocol.write_frame oc (Protocol.encode_reply reply);
        if reply = Protocol.Shutting_down then () else loop ()
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* Worker domains block in [accept] on the shared listening socket.  The
   socket carries a receive timeout, so a worker re-checks the stop flag
   a few times a second even when traffic is idle; [stop]/a Shutdown
   request flips the flag and the pool drains. *)
let worker_loop t =
  let rec go () =
    if Atomic.get t.stop then ()
    else
      match Unix.accept ~cloexec:true t.sock with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          go ()
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          serve_connection t fd;
          go ()
  in
  go ()

let start ?(config = default_config) ?cache_dir ~socket () =
  (match cache_dir with
  | Some dir -> Atom.Toolcache.set_store (Some dir)
  | None -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket);
  Unix.listen sock 64;
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.2;
  let t =
    {
      cfg = config;
      sock;
      path = socket;
      stop = Atomic.make false;
      jobs = Atomic.make 0;
      errors = Atomic.make 0;
      reg_lock = Mutex.create ();
      registry = Hashtbl.create 64;
      reg_order = Queue.create ();
      domains = [];
    }
  in
  t.domains <-
    List.init (max 1 config.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let wait t =
  List.iter Domain.join t.domains;
  t.domains <- [];
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (try Unix.unlink t.path with Unix.Unix_error _ -> ())

let stop t =
  Atomic.set t.stop true;
  wait t

let stopping t = Atomic.get t.stop

(* for signal handlers: flipping the flag from a handler is async-signal
   safe, where joining domains is not *)
let stop_flag t = t.stop

(* -- client -------------------------------------------------------------- *)

exception Server_error of string

module Client = struct
  type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  (* the server may still be binding its socket when the first client
     arrives; retry briefly instead of failing the race *)
  let connect ?(retries = 100) path =
    let rec go n =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          {
            fd;
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr fd;
          }
      | exception
          Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        when n > 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.02;
          go (n - 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    go retries

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let rpc c req =
    Protocol.write_frame c.oc (Protocol.encode_request req);
    match Protocol.read_frame c.ic with
    | None -> raise (Server_error "connection closed by server")
    | Some payload -> (
        match Protocol.decode_reply payload with
        | Protocol.Error m -> raise (Server_error m)
        | reply -> reply)

  let instrument c ?(options = Atom.Instrument.default_options) ~tool exe_bytes
      =
    match rpc c (Protocol.Instrument { tool; options; exe = Protocol.Inline exe_bytes }) with
    | Protocol.Instrumented { digest; image } -> (digest, image)
    | _ -> raise (Server_error "unexpected reply to instrument")

  let run c ?(stdin = "") ?(engine = Machine.Sim.Fast)
      ?(ceilings = Protocol.no_ceilings) image =
    match rpc c (Protocol.Run { image; stdin; ceilings; engine }) with
    | Protocol.Ran r -> r
    | _ -> raise (Server_error "unexpected reply to run")

  let load_image c exe_bytes =
    match rpc c (Protocol.Load_image exe_bytes) with
    | Protocol.Loaded { digest } -> digest
    | _ -> raise (Server_error "unexpected reply to load-image")

  let stats c =
    match rpc c Protocol.Stats with
    | Protocol.Stats_reply s -> s
    | _ -> raise (Server_error "unexpected reply to stats")

  let shutdown c =
    match rpc c Protocol.Shutdown with
    | Protocol.Shutting_down -> ()
    | _ -> raise (Server_error "unexpected reply to shutdown")
end
