(** Sparse byte-addressable memory, allocated in 4 KiB pages on first
    touch, with segment-derived page protection and a resident-page
    ceiling.  Addresses are plain OCaml [int]s (the simulated address
    space stays far below 2{^62}); values are [int64].

    A fresh memory is unprotected: every access maps a zero page, as the
    loader needs.  Installing a map with {!protect} makes subsequent
    accesses fail closed — an access outside every region (or a write to
    a read-only one) raises {!Prot}, and the ceiling bounds how many
    pages a run can materialise, so a wild program cannot exhaust the
    host.  Permissions are page-granular: a page gets the union of the
    permissions of the regions overlapping it. *)

type t

val create : unit -> t

val page_bits : int
val page_size : int
val page_mask : int

exception Prot of { addr : int; access : Fault.access }
(** Raised by a checked access that the protection map forbids.  The
    engines convert it to {!Fault.Segv} by adding the faulting PC. *)

exception Limit of { pages : int; limit : int }
(** Raised when mapping one more page would exceed the resident-page
    ceiling.  The engines convert it to {!Fault.Mem_limit}. *)

val protect :
  t -> regions:(int * int * bool) list -> heap_lo:int -> max_pages:int -> unit
(** Install the protection map: [(lo, hi, writable)] regions (all
    readable), the heap base (grown by {!grow_heap} as the program break
    moves), and the resident-page ceiling.  Pages already mapped by the
    loader are re-derived under the new map: a page no region covers
    becomes inaccessible, a read-only page loses its writable view. *)

val grow_heap : t -> int -> unit
(** Raise the heap high-water mark to [addr] if it is above the current
    one.  Called by the [brk] system call; never lowers the mark, since
    the partitioned heap mode legitimately moves the break down again
    while the higher pages stay live. *)

val rpage : t -> int -> bytes
(** The readable page backing an address, created on first touch;
    raises {!Prot}/{!Limit}.  Exposed for {!Exec}'s translated memory
    accessors, which cache pages in small direct-mapped TLBs and call
    this on a miss; pages are never replaced once created, so a cached
    [bytes] never goes stale. *)

val wpage : t -> int -> bytes
(** Same, for the writable view. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val read_u64 : t -> int -> int64
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit

val write_bytes : t -> int -> bytes -> unit
val read_block : t -> int -> int -> bytes

val read_cstring : t -> int -> string
(** NUL-terminated string at the address (capped at 1 MiB). *)

val poke_bytes : t -> int -> bytes -> unit
(** Unchecked store for the loader: maps pages regardless of any
    protection (the loader runs before {!protect} installs the map). *)

val peek_u8 : t -> int -> int
val peek_u64 : t -> int -> int64
(** Unchecked, non-allocating reads for tests and post-run inspection:
    an unmapped address reads as zero and maps nothing. *)

val pages_touched : t -> int
(** Number of resident pages. *)
