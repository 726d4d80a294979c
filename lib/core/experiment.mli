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
          are a derived cell ({!Runs.derive}).  [abl-lifetime] lists
          the grid cells it reads beside its derived cell. *)
  render : Context.t -> string;
}

val all : t list
(** Paper order: fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
    tab2..tab6, then ablations. *)

val find : string -> t
(** @raise Not_found for unknown ids. *)

val ids : unit -> string list

val warm : Context.t -> string list -> unit
(** [warm ctx ids] fills the context's run grid for every cell the
    named experiments will demand, using up to the context's [jobs]
    worker domains ({!Runs.prefetch}).  Purely a wall-clock
    optimization: rendering after a warm pass is bit-identical to
    rendering cold.
    @raise Not_found for unknown ids. *)

val warm_all : Context.t -> unit
(** {!warm} over {!ids}. *)

val run : Context.t -> string -> string
(** [run ctx id] renders one experiment, warming its cells first.
    @raise Not_found for unknown ids. *)
