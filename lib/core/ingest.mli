(** Report rendering for ingested external-trace cells.

    External artifacts carry no workload summary (no instructions, no
    allocator statistics), so the paper tables don't apply; this report
    shows the trace's provenance, stream identity, reference counts,
    the full cache sweep and the two-level hierarchy read off it
    ({!Artifact.paper_hierarchy}). *)

val report : Artifact.t -> string
