(** The experiment registry: every table and figure of the paper's
    evaluation, plus the ablations, addressable by id. *)

type t = {
  id : string;  (** e.g. ["fig4"], ["tab6"], ["abl-coalesce"]. *)
  title : string;
  paper_ref : string;  (** Where it appears in the paper. *)
  cells : (string * string) list;
      (** The (profile, allocator) grid cells the renderer demands —
          the prefetch hint {!warm} feeds to {!Runs.prefetch}.  Empty
          for static experiments, [tabcpu] and [abl-flush]: their rows
          are a derived cell.  [abl-lifetime] lists the grid cells it
          reads beside its derived cell. *)
  derived : (Context.t -> Runs.derivation) list;
      (** The off-grid derived cells the renderer resolves
          ({!Runs.derive}), declared like [cells]: [tabcpu]'s
          hierarchy passes, [abl-flush]'s flushing caches,
          [abl-assoc]'s and [abl-blocksize]'s shared [abl-sweep], and
          [abl-lifetime]'s predictive and custom passes. *)
  render : Context.t -> string;
}

val all : t list
(** Paper order: fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
    tab2..tab6, then ablations. *)

val find : string -> t
(** @raise Not_found for unknown ids. *)

val ids : unit -> string list

val warm : Context.t -> string list -> unit
(** [warm ctx ids] resolves every grid cell and derived cell the named
    experiments will demand, in one {!Runs.prefetch}: the grid on up to
    the context's [jobs] worker domains, or, on one, beside the derived
    cells on an idle core.  Purely a wall-clock optimization: rendering
    after a warm pass is bit-identical to rendering cold.
    @raise Not_found for unknown ids. *)

val warm_all : Context.t -> unit
(** {!warm} over {!ids}. *)

val run : Context.t -> string -> string
(** [run ctx id] renders one experiment, warming its cells first
    ({!warm}).
    @raise Not_found for unknown ids. *)
