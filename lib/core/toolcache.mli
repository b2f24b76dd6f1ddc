(** Content-addressed cache of prepared analysis modules — shared,
    concurrency-safe, and optionally backed by a persistent on-disk
    store.

    Selecting, laying out and provisionally linking a tool's analysis
    module — and running the dataflow-summary analysis over the linked
    image — depends only on the analysis units (plus the process-constant
    runtime library) and on the instrumentation options, not on the
    application being instrumented.  {!Instrument} therefore keys this
    work by a digest of the serialised analysis units plus an option
    fingerprint and reuses it across a whole workload sweep: the 15
    workloads × 12 tools benchmark prepares each tool once instead of 180
    times.  The application-side analyses — the IR build and its
    liveness — depend only on the executable, so they are keyed by its
    digest and computed once per application, whichever tool, options
    or caller (the instrumentation engine or the verifier) asks.

    {b Concurrency.}  Every operation is safe to call from any number of
    domains (the serving daemon's worker pool shares this one cache).  A
    miss publishes its key as in-flight and builds outside the lock;
    concurrent requests for the same key wait for the build instead of
    duplicating it, so N simultaneous first requests for one key are
    exactly one miss and N−1 hits.  Every cached value is immutable or
    only ever read (the liveness table; the link blob, which callers
    copy), so a hit hands out the cached value itself: callers on any
    number of domains share one application IR ({!program}), which
    holds no stubs (each request's stubs live in its own
    {!Om.Codegen.table}).

    {b Persistence.}  {!set_store} points the cache at a directory; every
    entry built thereafter is written through (temp file + atomic rename)
    and later lookups — in this process after {!clear}, in other worker
    processes, or after a daemon restart — are served from disk.  Each
    entry is one file named after its kind and a digest of its key; the
    kinds are [anal] ({!find_or_add}), [prog] ({!program}), [live]
    ({!liveness}), [link] ({!find_or_add_linked}) and [image]
    ({!find_or_add_image}).  Entries carry a format version, the OCaml
    version and the full content key; anything stale or unreadable is
    silently treated as a miss.

    The option fingerprint is conservative: today none of the cached
    artefacts depend on the options, but any option that could affect
    analysis-side code generation is folded into the key so a stale entry
    can never be replayed under different options (a changed option is a
    guaranteed miss).  Correctness never depends on this cache — the
    benchmark harness and the tests check that cold, warm and disk-served
    paths produce byte-identical instrumented images. *)

type prepared = {
  pr_pl : Linker.Link.placement;  (** analysis-module layout *)
  pr_summaries : Om.Dataflow.t;  (** per-procedure clobber summaries *)
  pr_img : Linker.Link.image;  (** provisional link (summary bases) *)
  pr_text_base : int;  (** text base of the provisional link *)
}

val find_or_add : string -> (unit -> prepared) -> prepared
(** [find_or_add key build] returns the cached entry for [key], building
    and caching it on a miss.  Exceptions from [build] propagate and cache
    nothing (waiters blocked on the same key retry). *)

val program : Objfile.Exe.t -> Om.Ir.program
(** The application's built IR ({!Om.Build.program}), which is
    tool-independent: keyed by the executable's digest ({!exe_digest}),
    one build serves every tool in a sweep.  A hit returns the cached
    IR itself, shared by every instrumentation of the executable and by
    the verifier. *)

val liveness : Objfile.Exe.t -> (int, Alpha.Regset.t) Hashtbl.t
(** {!Om.Liveness.compute} over the executable's IR (the {!program}
    entry), keyed by the executable's digest.  It is a function
    of the original executable alone, so one table per application
    serves every live-filtered instrumentation in a sweep and the
    verifier's check of each resulting image.  The table is shared:
    callers only read it ({!Om.Liveness.live_before},
    {!Om.Liveness.live_after}). *)

(** The final link of an analysis module at its real bases: the emitted
    image plus the assembled analysis blob (text ++ rdata ++ data ++
    zeroed bss, heap-mode poke applied).  Both depend only on the
    prepared module, the placement bases and the symbol overrides — all
    folded into the key — so repeat instrumentations of the same
    (tool, application) pair relink nothing.  [ln_blob] is a template:
    callers copy it before placing it in an executable image. *)
type linked = {
  ln_img : Linker.Link.image;
  ln_blob : bytes;
}

val find_or_add_linked : string -> (unit -> linked) -> linked

val find_or_add_image : string -> (unit -> string * string) -> string * string
(** Whole-image cache for the serving daemon, layered above the three
    pipeline caches: the value is the complete instrumented image as
    [(hex digest, serialised bytes)], keyed by (executable digest, tool
    name, option fingerprint).  Instrumentation is deterministic, so a
    repeat request skips even the per-request splice and code
    generation; with a store attached, a restarted daemon serves repeat
    instrumentations without touching the toolchain at all. *)

val exe_digest : Objfile.Exe.t -> string
val unit_digest : Objfile.Unit_file.t -> string
(** Content digests of the serialised value, memoized by physical
    identity so sweeps don't reserialise the same executable or unit on
    every call.  The memo is a bounded ring of weak slots: it never
    retains an executable the rest of the process has dropped (a
    long-lived server digests an unbounded stream of them), and it is
    emptied by {!clear}. *)

val set_store : string option -> unit
(** Attach (or detach, with [None]) a persistent on-disk store directory.
    The directory is created if missing.  Entries are written through on
    every build and served back on any later miss, including across
    {!clear} and across processes sharing the directory. *)

val store : unit -> string option
(** The store directory currently attached, if any. *)

val clear : unit -> unit
(** Drop every in-memory entry (the benchmark's cold mode).  The on-disk
    store, if attached, is untouched — after [clear] lookups refill from
    disk; detach the store first for a truly cold run. *)

val hits : ?kind:string -> unit -> int
val misses : ?kind:string -> unit -> int
(** Cumulative process-wide counters (not reset by {!clear}).  With
    in-flight deduplication the split is deterministic even under
    contention: concurrent first requests for one key count one miss,
    the rest hits.  With [~kind] they count only the lookups of entries
    of that kind (["anal"], ["prog"], ["live"], ["link"] or
    ["image"]). *)

val disk_hits : unit -> int
(** Lookups served from the persistent store rather than built. *)

val size : unit -> int
(** Number of live in-memory entries. *)
