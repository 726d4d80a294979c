type t = {
  runs : Runs.t;
  model : Metrics.Cost_model.t;
  cpu : Cachesim.Cpu.t;
}

let create ?scale ?jobs ?store ?(model = Metrics.Cost_model.paper)
    ?(cpu = Cachesim.Cpu.skylake) () =
  { runs = Runs.create ?scale ?jobs ?store (); model; cpu }

module Options = struct
  type t = {
    scale : float;
    penalty : int;
    jobs : int;
    store_dir : string option;
    cpu : Cachesim.Cpu.t;
  }

  let default =
    { scale = 0.25;
      penalty = 25;
      jobs = 1;
      store_dir = None;
      cpu = Cachesim.Cpu.skylake }

  let ( let* ) = Result.bind

  (* Resolve one option: explicit flag > LOCLAB_* environment variable >
     built-in default.  A flag value silences the environment entirely
     (even an unparseable one); a present-but-invalid environment value
     is an error naming the variable, never a silent fallback. *)
  let pick ~flag ~getenv ~env ~parse ~default =
    match flag with
    | Some v -> Result.Ok v
    | None -> (
        match getenv env with
        | None -> Result.Ok default
        | Some raw -> (
            match parse (String.trim raw) with
            | Result.Ok _ as ok -> ok
            | Result.Error msg ->
                Result.Error (Printf.sprintf "%s=%S: %s" env raw msg)))

  let check_scale scale =
    if scale > 0. && scale <= 4.0 then Result.Ok scale
    else Result.Error "scale must be in (0, 4]"

  let check_penalty p =
    if p >= 0 then Result.Ok p else Result.Error "penalty must be >= 0"

  let check_jobs jobs =
    if jobs < 0 then Result.Error "jobs must be >= 0"
    else Result.Ok (if jobs = 0 then Exec.Pool.recommended_jobs () else jobs)

  let parse_float what s =
    match float_of_string_opt s with
    | Some f -> Result.Ok f
    | None -> Result.Error (Printf.sprintf "not a %s" what)

  let parse_int s =
    match int_of_string_opt s with
    | Some i -> Result.Ok i
    | None -> Result.Error "not an integer"

  let parse_cpu key =
    match Cachesim.Cpu.find key with
    | cpu -> Result.Ok cpu
    | exception Invalid_argument msg -> Result.Error msg

  let build ?(getenv = Sys.getenv_opt) ?scale ?penalty ?jobs ?store_dir ?cpu
      () =
    let* scale =
      (* Validation runs inside [pick]'s parse so an out-of-range
         environment value is reported naming its variable; the outer
         check covers the flag path (idempotent on the env path). *)
      let* s =
        pick ~flag:scale ~getenv ~env:"LOCLAB_SCALE"
          ~parse:(fun s ->
            let* f = parse_float "number" s in
            check_scale f)
          ~default:default.scale
      in
      check_scale s
    in
    let* penalty =
      let* p =
        pick ~flag:penalty ~getenv ~env:"LOCLAB_PENALTY"
          ~parse:(fun s ->
            let* i = parse_int s in
            check_penalty i)
          ~default:default.penalty
      in
      check_penalty p
    in
    let* jobs =
      let* j =
        pick ~flag:jobs ~getenv ~env:"LOCLAB_JOBS"
          ~parse:(fun s ->
            let* i = parse_int s in
            check_jobs i)
          ~default:default.jobs
      in
      check_jobs j
    in
    let* store_dir =
      (* An empty LOCLAB_STORE (or --store "") means "no store", not a
         store rooted at the current directory. *)
      let* d =
        pick ~flag:(Option.map Option.some store_dir) ~getenv
          ~env:"LOCLAB_STORE"
          ~parse:(fun s -> Result.Ok (Some s))
          ~default:None
      in
      Result.Ok (match d with Some "" -> None | d -> d)
    in
    let* cpu =
      pick ~flag:cpu ~getenv ~env:"LOCLAB_CPU" ~parse:parse_cpu
        ~default:default.cpu
    in
    Result.Ok { scale; penalty; jobs; store_dir; cpu }
end

let of_options (o : Options.t) =
  let model = Metrics.Cost_model.with_penalty Metrics.Cost_model.paper o.penalty in
  match o.store_dir with
  | None -> create ~scale:o.scale ~jobs:o.jobs ~model ~cpu:o.cpu ()
  | Some dir ->
      create ~scale:o.scale ~jobs:o.jobs ~store:(Store.open_ dir) ~model
        ~cpu:o.cpu ()

(* tabcpu and abl-flush drive their own passes rather than read grid
   cells; capping their scale keeps `loclab all` affordable at the
   default scale of 0.25. *)
let off_grid_scale t = Float.min 0.1 (Runs.scale t.runs)

let five_programs =
  [ ("espresso", "Espresso"); ("gs-large", "GS"); ("ptc", "PTC");
    ("gawk", "Gawk"); ("make", "Make") ]

let paper_allocators =
  [ ("firstfit", "FirstFit"); ("gnu-g++", "GNU G++"); ("bsd", "BSD");
    ("gnu-local", "GNU local"); ("quickfit", "QuickFit") ]

let with_custom = paper_allocators @ [ ("custom", "Custom") ]
