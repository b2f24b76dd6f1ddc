let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* A protection map: a handful of [lo, hi) regions derived from the
   loaded executable, plus the heap tracked as a high-water mark of the
   program break (the partitioned heap mode makes the break bounce
   between the application's and the analysis module's values, so only
   the maximum ever granted is a sound bound).  The map is consulted
   only when an access misses the page tables, i.e. at most once per
   page per access kind. *)
type region = { r_lo : int; r_hi : int; r_writable : bool }

type prot = {
  mutable p_regions : region list;
  mutable p_heap_lo : int;
  mutable p_heap_hi : int;  (* high-water mark of the program break *)
  mutable p_limit : int;  (* resident-page ceiling *)
}

(* Two views of the same sparse page store: [rpages] holds every
   readable page, [wpages] every writable one, both mapping a page index
   to the one backing [bytes].  A permission check is therefore free on
   the hot path — it is the table lookup itself — and a page's [bytes]
   is never replaced once created, so cached references (the fast
   engine's page TLBs) cannot go stale. *)
type t = {
  rpages : (int, bytes) Hashtbl.t;
  wpages : (int, bytes) Hashtbl.t;
  mutable resident : int;
  mutable prot : prot option;
}

exception Prot of { addr : int; access : Fault.access }
exception Limit of { pages : int; limit : int }

let create () =
  {
    rpages = Hashtbl.create 256;
    wpages = Hashtbl.create 256;
    resident = 0;
    prot = None;
  }

(* Permissions are page-granular: a page gets the union of the
   permissions of every region overlapping it, so the bytes between a
   region's end and its last page's end share that region's access. *)
let page_perm pr idx =
  let lo = idx lsl page_bits in
  let hi = lo + page_size in
  let readable = ref false and writable = ref false in
  List.iter
    (fun r ->
      if r.r_lo < hi && lo < r.r_hi then begin
        readable := true;
        if r.r_writable then writable := true
      end)
    pr.p_regions;
  if pr.p_heap_lo < hi && lo < pr.p_heap_hi then begin
    readable := true;
    writable := true
  end;
  (!readable, !writable)

let found_page m idx =
  match Hashtbl.find_opt m.rpages idx with
  | Some _ as p -> p
  | None -> Hashtbl.find_opt m.wpages idx

let page_slow m a (access : Fault.access) =
  let idx = a lsr page_bits in
  let readable, writable =
    match m.prot with None -> (true, true) | Some pr -> page_perm pr idx
  in
  let ok =
    match access with Load | Fetch -> readable | Store -> writable
  in
  if not ok then raise (Prot { addr = a; access });
  let p =
    match found_page m idx with
    | Some p -> p
    | None ->
        (match m.prot with
        | Some pr when m.resident >= pr.p_limit ->
            raise (Limit { pages = m.resident; limit = pr.p_limit })
        | _ -> ());
        m.resident <- m.resident + 1;
        Bytes.make page_size '\000'
  in
  if readable then Hashtbl.replace m.rpages idx p;
  if writable then Hashtbl.replace m.wpages idx p;
  p

let rpage m a =
  let idx = a lsr page_bits in
  match Hashtbl.find_opt m.rpages idx with
  | Some p -> p
  | None -> page_slow m a Fault.Load

let wpage m a =
  let idx = a lsr page_bits in
  match Hashtbl.find_opt m.wpages idx with
  | Some p -> p
  | None -> page_slow m a Fault.Store

let protect m ~regions ~heap_lo ~max_pages =
  let pr =
    {
      p_regions =
        List.map (fun (lo, hi, w) -> { r_lo = lo; r_hi = hi; r_writable = w })
          regions;
      p_heap_lo = heap_lo;
      p_heap_hi = heap_lo;
      p_limit = max_pages;
    }
  in
  m.prot <- Some pr;
  (* pages mapped by the loader predate the map: re-derive both views *)
  let drop tbl keep =
    let dead =
      Hashtbl.fold
        (fun idx _ acc -> if keep (page_perm pr idx) then acc else idx :: acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) dead
  in
  drop m.rpages (fun (r, _) -> r);
  drop m.wpages (fun (_, w) -> w)

let grow_heap m addr =
  match m.prot with
  | None -> ()
  | Some pr -> if addr > pr.p_heap_hi then pr.p_heap_hi <- addr

let read_u8 m a = Char.code (Bytes.unsafe_get (rpage m a) (a land page_mask))

let write_u8 m a v =
  Bytes.unsafe_set (wpage m a) (a land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* Fast paths when the access stays within one page. *)
let read_u16 m a =
  let off = a land page_mask in
  if off + 2 <= page_size then
    let p = rpage m a in
    Char.code (Bytes.unsafe_get p off) lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
  else read_u8 m a lor (read_u8 m (a + 1) lsl 8)

let read_u32 m a =
  let off = a land page_mask in
  if off + 4 <= page_size then begin
    let p = rpage m a in
    Char.code (Bytes.unsafe_get p off)
    lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get p (off + 3)) lsl 24)
  end
  else read_u16 m a lor (read_u16 m (a + 2) lsl 16)

let read_u64 m a =
  let off = a land page_mask in
  if off + 8 <= page_size then
    let p = rpage m a in
    Int64.logor
      (Int64.of_int
         (Char.code (Bytes.unsafe_get p off)
         lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
         lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 16)
         lor (Char.code (Bytes.unsafe_get p (off + 3)) lsl 24)))
      (Int64.shift_left
         (Int64.of_int
            (Char.code (Bytes.unsafe_get p (off + 4))
            lor (Char.code (Bytes.unsafe_get p (off + 5)) lsl 8)
            lor (Char.code (Bytes.unsafe_get p (off + 6)) lsl 16)
            lor (Char.code (Bytes.unsafe_get p (off + 7)) lsl 24)))
         32)
  else
    Int64.logor
      (Int64.of_int (read_u32 m a))
      (Int64.shift_left (Int64.of_int (read_u32 m (a + 4))) 32)

let write_u16 m a v =
  write_u8 m a v;
  write_u8 m (a + 1) (v lsr 8)

let write_u32 m a v =
  let off = a land page_mask in
  if off + 4 <= page_size then begin
    let p = wpage m a in
    Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set p (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set p (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  end
  else begin
    write_u16 m a v;
    write_u16 m (a + 2) (v lsr 16)
  end

let write_u64 m a v =
  let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical v 32) in
  write_u32 m a lo;
  write_u32 m (a + 4) hi

let write_bytes m a b =
  Bytes.iteri (fun i c -> write_u8 m (a + i) (Char.code c)) b

let read_block m a n = Bytes.init n (fun i -> Char.chr (read_u8 m (a + i)))

let read_cstring m a =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= 1 lsl 20 then Buffer.contents buf
    else
      let c = read_u8 m (a + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0

(* Unchecked accessors for the loader and post-run inspection. *)

let poke_page m a =
  let idx = a lsr page_bits in
  match found_page m idx with
  | Some p -> p
  | None ->
      m.resident <- m.resident + 1;
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace m.rpages idx p;
      Hashtbl.replace m.wpages idx p;
      p

(* one page-table lookup and one blit per page the bytes touch *)
let poke_bytes m a b =
  let n = Bytes.length b in
  let rec go i =
    if i < n then begin
      let ad = a + i in
      let off = ad land page_mask in
      let len = min (n - i) (page_size - off) in
      Bytes.blit b i (poke_page m ad) off len;
      go (i + len)
    end
  in
  go 0

let peek_u8 m a =
  let idx = a lsr page_bits in
  match found_page m idx with
  | Some p -> Char.code (Bytes.unsafe_get p (a land page_mask))
  | None -> 0

let peek_u64 m a =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (peek_u8 m (a + i)))
  done;
  !v

let pages_touched m = m.resident
