(* Byte-identity gate for the instrumenter and the static verifier.

   Instruments every workload with every registered tool under each set
   of [Matrix.option_matrix], checks each image with
   [Verify.check_image], and prints one line per cell:

     workload tool option-set image-md5 audit-md5 report-first-line

   The audit digest is taken over the normalized audit, marshalled
   without sharing so that it depends on the audit's value alone.  The
   test runner diffs this output against [image_digests.expected]: a
   change to any image, audit or verifier verdict fails by cell, and
   [dune promote] accepts an intended one. *)

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let () =
  List.iter
    (fun (w : Workloads.t) ->
      let exe = Workloads.compile w in
      List.iter
        (fun (tool : Tools.Tool.t) ->
          List.iteri
            (fun k options ->
              let cell =
                Printf.sprintf "%s %s %d" w.Workloads.w_name
                  tool.Tools.Tool.name k
              in
              match Tools.Tool.apply ~options tool exe with
              | exception e ->
                  Printf.printf "%s error: %s\n" cell (Printexc.to_string e)
              | exe', info ->
                  let rep =
                    Verify.check_image ~original:exe ~instrumented:exe' ~info
                  in
                  let audit = Matrix.norm_audit info.Atom.Instrument.i_audit in
                  Printf.printf "%s %s %s %s\n" cell
                    (Digest.to_hex (Digest.string (Objfile.Exe.to_string exe')))
                    (Digest.to_hex
                       (Digest.string
                          (Marshal.to_string audit [ Marshal.No_sharing ])))
                    (first_line (Verify.report_to_string rep)))
            Matrix.option_matrix)
        Tools.Registry.all)
    Workloads.all
