(** The runtime library, compiled on demand and memoised.

    The library plays libc's role from the paper: the application links
    one copy; ATOM links a second, completely separate copy into the
    analysis module ("if both use printf, there are two copies of printf
    in the final executable"). *)

val header : string
(** Prototypes for the public library functions; prepended to user Mini-C
    sources by {!compile_user}. *)

val crt0 : unit -> Objfile.Unit_file.t
(** Startup code defining [__start]; applications only. *)

val libc : unit -> Objfile.Archive.t
(** [libc.a]: division helpers, syscall stubs and the Mini-C library. *)

val compile_user : ?cache:bool -> name:string -> string -> Objfile.Unit_file.t
(** Compile a user program with the library prototypes in scope.

    By default the result is memoised under a content key (digest of unit
    name + full source), so compiling the same source again returns the
    cached object; [~cache:false] forces a fresh compilation (the
    benchmark's [fresh] workload and its per-layer compile timing use it
    on programs they never compile twice). *)

val clear_cache : unit -> unit
(** Drop every entry of the content-addressed compilation cache. *)

val link_program : Objfile.Unit_file.t list -> Objfile.Exe.t
(** [crt0 + units + libc], standard layout, entry [__start]. *)

val compile_and_link : name:string -> string -> Objfile.Exe.t
(** Convenience: [link_program [compile_user ~name src]]. *)
