type t = {
  id : string;
  title : string;
  paper_ref : string;
  cells : (string * string) list;
  derived : (Context.t -> Runs.derivation) list;
  render : Context.t -> string;
}

(* Grid cells and derived cells each renderer will demand, declared up
   front so a warm pass can fill the memo in parallel before any
   rendering starts.  The lists mirror the Runs.get and Runs.derive
   calls in figures.ml / tables.ml / ablations.ml; they are a prefetch
   hint, not a contract — a missing value is still computed lazily by
   the render, it just isn't parallel. *)

let cross programs allocators =
  List.concat_map
    (fun (p, _) -> List.map (fun (a, _) -> (p, a)) allocators)
    programs

let keys_of l = List.map (fun k -> (k, k)) l

let paper_grid = cross Context.five_programs Context.paper_allocators

let gs_large_paper =
  cross [ ("gs-large", "GS") ] Context.paper_allocators

let gs_large_custom = cross [ ("gs-large", "GS") ] Context.with_custom

let all =
  [
    { id = "fig1";
      title = "Percent of time in malloc and free";
      paper_ref = "Figure 1, section 3.1";
      cells = paper_grid;
      derived = [];
      render = Figures.fig1 };
    { id = "fig2";
      title = "Page fault rate for GhostScript";
      paper_ref = "Figure 2, section 4.1";
      cells = gs_large_paper;
      derived = [];
      render = Figures.fig2 };
    { id = "fig3";
      title = "Page fault rate for Pascal-to-C";
      paper_ref = "Figure 3, section 4.1";
      cells = cross [ ("ptc", "PTC") ] Context.paper_allocators;
      derived = [];
      render = Figures.fig3 };
    { id = "fig4";
      title = "Normalized execution time, 16K cache";
      paper_ref = "Figure 4, section 4.2";
      cells = paper_grid;
      derived = [];
      render = Figures.fig4 };
    { id = "fig5";
      title = "Normalized execution time, 64K cache";
      paper_ref = "Figure 5, section 4.2";
      cells = paper_grid;
      derived = [];
      render = Figures.fig5 };
    { id = "fig6";
      title = "Cache miss rate, GS-Small";
      paper_ref = "Figure 6, section 4.2";
      cells = cross [ ("gs-small", "GS") ] Context.paper_allocators;
      derived = [];
      render = Figures.fig6 };
    { id = "fig7";
      title = "Cache miss rate, GS-Medium";
      paper_ref = "Figure 7, section 4.2";
      cells = cross [ ("gs-medium", "GS") ] Context.paper_allocators;
      derived = [];
      render = Figures.fig7 };
    { id = "fig8";
      title = "Cache miss rate, GS-Large";
      paper_ref = "Figure 8, section 4.2";
      cells = gs_large_paper;
      derived = [];
      render = Figures.fig8 };
    { id = "fig9";
      title = "Size-mapping array";
      paper_ref = "Figure 9, section 4.4";
      cells = [];  (* static construction, no simulation *)
      derived = [];
      render = Figures.fig9 };
    { id = "tab2";
      title = "Test program performance information";
      paper_ref = "Table 2, section 3.1";
      cells = cross Context.five_programs [ ("firstfit", "FirstFit") ];
      derived = [];
      render = Tables.tab2 };
    { id = "tab3";
      title = "GhostScript input sets";
      paper_ref = "Table 3, section 4.2";
      cells =
        cross
          (keys_of [ "gs-small"; "gs-medium"; "gs-large" ])
          [ ("firstfit", "FirstFit") ];
      derived = [];
      render = Tables.tab3 };
    { id = "tab4";
      title = "Execution and miss time, 16K cache";
      paper_ref = "Table 4, section 4.2";
      cells = paper_grid;
      derived = [];
      render = Tables.tab4 };
    { id = "tab5";
      title = "Execution and miss time, 64K cache";
      paper_ref = "Table 5, section 4.2";
      cells = paper_grid;
      derived = [];
      render = Tables.tab5 };
    { id = "tab6";
      title = "Effect of boundary tags on GNU local";
      paper_ref = "Table 6, section 4.3";
      cells =
        cross Context.five_programs
          (keys_of [ "gnu-local-tags"; "gnu-local" ]);
      derived = [];
      render = Tables.tab6 };
    { id = "tabcpu";
      title = "Allocator ranking on modern CPU hierarchies";
      paper_ref = "extension; Risco-Martin et al. methodology";
      cells = [];
      derived = [ Tables.cpu_cell ];
      render = Tables.tabcpu };
    { id = "abl-coalesce";
      title = "Coalescing ablation (FirstFit)";
      paper_ref = "section 4.1 discussion";
      cells =
        cross
          (keys_of [ "gs-large"; "ptc"; "gawk" ])
          (keys_of [ "firstfit"; "firstfit-nc" ]);
      derived = [];
      render = Ablations.coalescing };
    { id = "abl-sizeclass";
      title = "Size-class policy ablation";
      paper_ref = "section 4.4 discussion";
      cells =
        cross [ ("gs-large", "GS") ]
          (keys_of [ "bsd"; "quickfit"; "gnu-local"; "custom" ]);
      derived = [];
      render = Ablations.size_classes };
    { id = "abl-assoc";
      title = "Cache associativity ablation";
      paper_ref = "section 2.2 discussion";
      cells = gs_large_custom;
      derived = [ Ablations.sweep_cell ];
      render = Ablations.associativity };
    { id = "abl-l2";
      title = "Two-level hierarchy extension";
      paper_ref = "section 1.1 discussion";
      cells = gs_large_custom;
      derived = [];
      render = Ablations.two_level };
    { id = "abl-blocksize";
      title = "Cache block-size / prefetch extension";
      paper_ref = "section 4.2 discussion";
      cells = gs_large_custom;
      derived = [ Ablations.sweep_cell ];
      render = Ablations.block_size };
    { id = "abl-seqfam";
      title = "Sequential-fit family extension";
      paper_ref = "section 5 conclusion";
      cells =
        cross [ ("gs-large", "GS") ]
          (keys_of [ "firstfit"; "bestfit"; "gnu-g++"; "quickfit" ]);
      derived = [];
      render = Ablations.seq_family };
    { id = "abl-flush";
      title = "Context-switch flush extension";
      paper_ref = "section 3.2 discussion";
      cells = [];
      derived = [ Ablations.flush_cell ];
      render = Ablations.flush };
    { id = "abl-lifetime";
      title = "Lifetime-prediction future work";
      paper_ref = "section 5.1 future work";
      cells = Ablations.lifetime_cells;
      derived = [ Ablations.lifetime_cell ];
      render = Ablations.lifetime_prediction };
    { id = "abl-penalty";
      title = "Miss-penalty sweep extension";
      paper_ref = "section 4.4 discussion";
      cells =
        cross [ ("gs-large", "GS") ]
          (keys_of [ "quickfit"; "bsd"; "gnu-local"; "firstfit"; "custom" ]);
      derived = [];
      render = Ablations.penalty_sweep };
  ]

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> e
  | None -> raise Not_found

let ids () = List.map (fun e -> e.id) all

let warm ctx ids =
  let es = List.map find ids in
  Runs.prefetch ctx.Context.runs
    ~derived:(List.concat_map (fun e -> List.map (fun d -> d ctx) e.derived) es)
    (List.concat_map (fun e -> e.cells) es)

let warm_all ctx = warm ctx (ids ())

let run ctx id =
  let e = find id in
  Telemetry.Span.with_span ~cat:"experiment" e.id @@ fun () ->
  warm ctx [ id ];
  e.render ctx
