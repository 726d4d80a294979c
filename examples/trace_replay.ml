(* Trace record & replay: run an expensive workload once, persist its
   reference trace compactly, then re-simulate it under as many cache
   configurations as you like without re-running the program — the
   stored-trace complement to the paper's execution-driven methodology.

   Run with: dune exec examples/trace_replay.exe *)

let () =
  let path = Filename.temp_file "loclab" ".trace" in

  (* Pass 1: generate the trace once (espresso under QuickFit). *)
  let result =
    Out_channel.with_open_bin path @@ fun oc ->
    Memsim.Trace.record ~format:Memsim.Trace.Source.Binary oc (fun sink ->
        Workload.Driver.run ~sink ~scale:0.05
          ~profile:Workload.Programs.espresso ~allocator:"quickfit" ())
  in
  let bytes = (Unix.stat path).Unix.st_size in
  Printf.printf "recorded %d events in %d bytes (%.2f bytes/event)\n"
    result.Workload.Driver.data_refs bytes
    (float_of_int bytes /. float_of_int result.Workload.Driver.data_refs);

  (* Pass 2..n: replay under different cache geometries, no workload
     re-execution. *)
  let trace = Memsim.Trace.slurp path in
  List.iter
    (fun (label, config) ->
      let cache = Cachesim.Multi.create [ config ] in
      let n =
        Memsim.Trace.read Memsim.Trace.Source.Binary trace
          (Cachesim.Multi.sink cache)
      in
      assert (n = result.Workload.Driver.data_refs);
      let stats = snd (List.hd (Cachesim.Multi.results cache)) in
      Printf.printf "  %-12s miss rate %6.3f%%  writebacks %d\n" label
        (Cachesim.Stats.miss_rate_pct stats)
        stats.Cachesim.Stats.writebacks)
    [ ("16K direct", Cachesim.Config.make (16 * 1024));
      ("16K 4-way", Cachesim.Config.make ~associativity:4 (16 * 1024));
      ("64K direct", Cachesim.Config.make (64 * 1024));
      ("64K 64B-line",
       Cachesim.Config.make ~name:"64K-b64" ~block_bytes:64 (64 * 1024)) ];
  Sys.remove path
