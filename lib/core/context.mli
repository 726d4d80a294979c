(** Shared state for experiment regeneration. *)

type t = {
  runs : Runs.t;
  model : Metrics.Cost_model.t;
  cpu : Cachesim.Cpu.t;
      (** Preset whose hierarchy the modern-CPU experiments detail
          ([--cpu]; default Skylake). *)
}

val create :
  ?scale:float ->
  ?jobs:int ->
  ?store:Store.t ->
  ?model:Metrics.Cost_model.t ->
  ?cpu:Cachesim.Cpu.t ->
  unit ->
  t
(** [jobs] (default 1) is the worker-domain bound forwarded to
    {!Runs.create}; it only affects how fast the grid fills
    ({!Runs.prefetch}), never the numbers.  [store] attaches a
    persistent artifact store — again only a matter of speed: a warm
    store and a cold grid render byte-identically. *)

(** The one CLI/service options builder: every entry point (run, all,
    report, probe, profile, serve) resolves the shared knobs
    — scale, miss penalty, worker domains, store directory, CPU preset —
    through {!Options.build}, which pins the precedence
    [flag > LOCLAB_* environment > default] in one place instead of
    re-parsing per subcommand. *)
module Options : sig
  type t = {
    scale : float;  (** In (0, 4]. *)
    penalty : int;  (** Cache miss penalty, cycles; >= 0. *)
    jobs : int;  (** Resolved worker domains; >= 1 (0 meant "per core"). *)
    store_dir : string option;  (** None = no persistent store. *)
    cpu : Cachesim.Cpu.t;
  }

  val default : t
  (** scale 0.25, penalty 25, jobs 1, no store, Skylake. *)

  val check_scale : float -> (float, string) result
  (** The one scale rule, (0, 4]: the CLI and the service both apply
      it.  Rejects NaN. *)

  val build :
    ?getenv:(string -> string option) ->
    ?scale:float ->
    ?penalty:int ->
    ?jobs:int ->
    ?store_dir:string ->
    ?cpu:Cachesim.Cpu.t ->
    unit ->
    (t, string) result
  (** Resolve every option with precedence [flag > env > default]: a
      given optional argument wins outright (its environment variable
      is not even read); otherwise [LOCLAB_SCALE] / [LOCLAB_PENALTY] /
      [LOCLAB_JOBS] / [LOCLAB_STORE] / [LOCLAB_CPU] are consulted via
      [getenv] (default [Sys.getenv_opt]; injectable for tests).
      [Error msg] on any out-of-range value or unparseable environment
      variable, naming the offender — flags and environment are
      validated identically.  [jobs = 0] resolves to one domain per
      core; an empty store dir means "no store". *)
end

val of_options : Options.t -> t
(** Build the context: opens the store directory (creating it if
    absent) and instantiates the cost model with the resolved penalty.
    @raise Sys_error when the store path exists and is not a
    directory, or cannot be created. *)

val off_grid_scale : t -> float
(** The scale of the off-grid experiments that drive their own passes
    (tabcpu, abl-flush): the context's scale capped at 0.1, which keeps
    [loclab all] affordable at the default scale of 0.25. *)

val five_programs : (string * string) list
(** (profile key, paper label) for the five-program suite, in the
    paper's order: Espresso, GS, PTC, Gawk, Make. *)

val paper_allocators : (string * string) list
(** (registry key, paper label) for the five studied allocators. *)

val with_custom : (string * string) list
(** {!paper_allocators} plus the synthesized allocator. *)
