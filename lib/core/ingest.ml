(* Rendering for ingested external-trace cells.

   An external artifact has no workload behind it (no instruction
   counts, no allocator statistics), so the paper tables don't apply;
   this report shows what the trace *does* have — provenance, stream
   identity, per-source reference counts, the full cache sweep, the
   two-level hierarchy read off it and the paged footprint. *)

open Metrics

let report (art : Artifact.t) =
  let m = art.Artifact.meta in
  let p = art.Artifact.provenance in
  let s = art.Artifact.summary in
  let b = Buffer.create 2048 in
  Printf.bprintf b "External trace cell %s\n" m.Artifact.program;
  Printf.bprintf b "  source    %s capture, %s bytes, crc32 0x%08x\n"
    p.Artifact.source_format
    (Table.fmt_int p.Artifact.source_bytes)
    p.Artifact.source_checksum;
  Printf.bprintf b "  events    %s (%s app, %s allocator), stream checksum 0x%x\n"
    (Table.fmt_int s.Artifact.data_refs)
    (Table.fmt_int s.Artifact.app_refs)
    (Table.fmt_int s.Artifact.allocator_refs)
    m.Artifact.trace_checksum;
  Printf.bprintf b "  digest    %s\n" (Artifact.digest_of_meta m);
  Printf.bprintf b "  footprint %s paged\n\n"
    (Table.fmt_kb (Vmsim.Fault_curve.footprint_bytes art.Artifact.fault_curve));
  let table =
    Table.create ~title:"Cache sweep (standard configurations)"
      ~columns:
        [ ("Cache", Table.Left); ("Block", Table.Right);
          ("Assoc", Table.Right); ("Policy", Table.Left);
          ("Accesses", Table.Right); ("Misses", Table.Right);
          ("Miss rate", Table.Right) ]
  in
  let row ((c : Cachesim.Config.t), accesses, misses) =
    Table.add_row table
      [ c.Cachesim.Config.name;
        string_of_int c.Cachesim.Config.block_bytes;
        string_of_int c.Cachesim.Config.associativity;
        Cachesim.Policy.to_string c.Cachesim.Config.policy;
        Table.fmt_int accesses;
        Table.fmt_int misses;
        Table.fmt_pct ~decimals:2 (Cachesim.Stats.rate ~misses ~accesses) ]
  in
  List.iter
    (fun (c, (st : Cachesim.Stats.t)) -> row (c, st.accesses, st.misses))
    art.Artifact.caches;
  Table.add_separator table;
  let l1, l2 = Artifact.paper_hierarchy art in
  List.iter row [ l1; l2 ];
  Buffer.add_string b (Table.render table);
  Buffer.contents b
