(** IR construction: decode a linked executable back into OM's symbolic
    program view.

    Procedure boundaries come from the executable's [Func] symbols (text
    between or before symbols becomes synthetic [proc_0x...] procedures, so
    the procedure array always covers the whole text segment).  Within a
    procedure, basic-block leaders are the procedure entry, every branch
    target, and every instruction following a terminator. *)

val program : Objfile.Exe.t -> Ir.program
(** @raise Failure if the text segment is malformed (e.g. empty).

    Symbol and leader lookups use sorted arrays with binary search and
    decoding goes through {!Alpha.Code.decode_cached}. *)
