let schema_version = 2

type row = {
  program : string;
  variant : string;
  instructions : int;
  allocator_instructions : int;
  heap_used : int;
  arena_pages : int option;
  stats : (string * Cachesim.Stats.t) list;
}

type meta = {
  id : string;
  scale : float;
  schema_version : int;
  inputs : string;
}

type t = { meta : meta; rows : row list }

let row ~program ~variant ?arena_pages (r : Workload.Driver.result) stats =
  { program;
    variant;
    instructions = r.instructions;
    allocator_instructions = r.malloc_instructions + r.free_instructions;
    heap_used = r.heap_used;
    arena_pages;
    stats }

let of_artifact ~variant (a : Artifact.t) =
  let s = a.summary in
  { program = a.meta.program;
    variant;
    instructions = s.instructions;
    allocator_instructions = s.malloc_instructions + s.free_instructions;
    heap_used = s.heap_used;
    arena_pages = None;
    stats =
      List.map (fun ((c : Cachesim.Config.t), st) -> (c.name, st)) a.caches }

(* ---- content addressing -------------------------------------------- *)

let inputs fields =
  String.concat ";"
    (List.map (fun (field, values) -> field ^ "=" ^ String.concat "," values)
       fields)

(* These spell a derived cell's key on every render that asks for it,
   so they concatenate rather than interpret a format: "<key>@<seed>",
   "<name>/<size>/<block>/<ways>/<policy>", "<key>[<level>|...]". *)
let program key =
  key ^ "@" ^ string_of_int (Workload.Programs.find key).Workload.Profile.seed

let config (c : Cachesim.Config.t) =
  String.concat "/"
    [ c.name; string_of_int c.size_bytes; string_of_int c.block_bytes;
      string_of_int c.associativity; Cachesim.Policy.to_string c.policy ]

let cpu (c : Cachesim.Cpu.t) =
  c.key ^ "["
  ^ String.concat "|"
      (List.map (fun (l : Cachesim.Cpu.level) -> config l.config) c.levels)
  ^ "]"

let digest_of_meta m =
  (* The key "loclab-derived|<id>|<%h scale>|<schema>|<inputs>"; %h:
     the scale's exact bits, as in Artifact.digest. *)
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ "loclab-derived"; m.id; Metrics.Numfmt.hex m.scale;
            string_of_int schema_version; m.inputs ]))

(* ---- codec --------------------------------------------------------- *)

module W = Binio.Writer
module R = Binio.Reader

(* The header layout is FROZEN: decode_meta must keep working on
   payloads from every past and future schema version. *)
let write_meta w (m : meta) =
  W.string w m.id;
  W.float w m.scale;
  W.int w m.schema_version;
  W.string w m.inputs

let read_meta r =
  let id = R.string r in
  let scale = R.float r in
  let schema_version = R.int r in
  let inputs = R.string r in
  { id; scale; schema_version; inputs }

let write_row w (row : row) =
  W.string w row.program;
  W.string w row.variant;
  W.int w row.instructions;
  W.int w row.allocator_instructions;
  W.int w row.heap_used;
  W.bool w (Option.is_some row.arena_pages);
  W.int w (Option.value row.arena_pages ~default:0);
  W.list w
    (fun (name, stats) ->
      W.string w name;
      Artifact.write_stats w stats)
    row.stats

let read_row r =
  let program = R.string r in
  let variant = R.string r in
  let instructions = R.int r in
  let allocator_instructions = R.int r in
  let heap_used = R.int r in
  let has_arena = R.bool r in
  let pages = R.int r in
  let stats =
    R.list r (fun r ->
        let name = R.string r in
        (name, Artifact.read_stats r))
  in
  { program;
    variant;
    instructions;
    allocator_instructions;
    heap_used;
    arena_pages = (if has_arena then Some pages else None);
    stats }

let encode t =
  let w = W.create () in
  write_meta w t.meta;
  W.list w (write_row w) t.rows;
  W.contents w

let decode payload =
  match
    let r = R.of_string payload in
    let meta = read_meta r in
    if meta.schema_version <> schema_version then
      Error
        (Printf.sprintf "schema version %d (this build reads %d)"
           meta.schema_version schema_version)
    else
      let rows = R.list r read_row in
      if not (R.at_end r) then Error "trailing bytes after derived cell"
      else Ok { meta; rows }
  with
  | result -> result
  | exception Binio.Error e -> Error e

let decode_meta payload =
  match read_meta (R.of_string payload) with
  | meta -> Ok meta
  | exception Binio.Error e -> Error e

(* ---- what renderers read ------------------------------------------- *)

let find rows ~program ~variant =
  List.find (fun r -> r.program = program && r.variant = variant) rows

let stats row name = List.assoc name row.stats

let allocator_fraction row =
  if row.instructions = 0 then 0.
  else float_of_int row.allocator_instructions /. float_of_int row.instructions
