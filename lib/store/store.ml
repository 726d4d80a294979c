let log_src = Logs.Src.create "loclab.store" ~doc:"loclab artifact store"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { root : string }

let magic = "LOCART1\n"
let cell_ext = ".art"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir ->
      (* Lost a create race to a concurrent worker; the directory is
         there, which is all we need. *)
      ()
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": exists and is not a directory"))

let open_ dir =
  mkdir_p dir;
  { root = dir }

let root t = t.root
let path t ~digest = Filename.concat t.root (digest ^ cell_ext)

type lookup = Hit of string | Miss | Corrupt of string

let lookups_f =
  Telemetry.Metrics.Counter.family ~name:"loclab_store_lookups_total"
    ~help:"Artifact store lookups by result" ~labels:[ "result" ] ()

let lookup_hit_c = Telemetry.Metrics.Counter.labels lookups_f [ "hit" ]
let lookup_miss_c = Telemetry.Metrics.Counter.labels lookups_f [ "miss" ]
let lookup_corrupt_c = Telemetry.Metrics.Counter.labels lookups_f [ "corrupt" ]

let puts_c =
  Telemetry.Metrics.Counter.family ~name:"loclab_store_puts_total"
    ~help:"Artifacts written to the store" ~labels:[] ()
  |> Fun.flip Telemetry.Metrics.Counter.labels []

let frame payload = Binio.Frame.frame ~magic payload
let unframe data = Binio.Frame.unframe ~magic data

(* A cell is read whole into a buffer of its exact size: one open, one
   fstat, one read (more only past [Unix.read]'s 64 KiB chunk) and one
   close, with no channel buffer in between.  A file that shrinks
   under the read yields what was read, which [unframe] rejects. *)
let read_file file =
  let fd = Unix.openfile file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let buf = Bytes.create size in
      let rec go off =
        if off = size then off
        else
          match Unix.read fd buf off (size - off) with
          | 0 -> off
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      in
      let got = go 0 in
      if got = size then Bytes.unsafe_to_string buf
      else Bytes.sub_string buf 0 got)

let find t ~digest =
  Telemetry.Span.with_span ~cat:"store" ~args:[ ("digest", digest) ] "find"
    (fun () ->
      let file = path t ~digest in
      match read_file file with
      | exception Unix.Unix_error _ ->
          Telemetry.Metrics.Counter.inc lookup_miss_c;
          Miss
      | data -> (
          match unframe data with
          | Ok payload ->
              Telemetry.Metrics.Counter.inc lookup_hit_c;
              Hit payload
          | Error reason ->
              Telemetry.Metrics.Counter.inc lookup_corrupt_c;
              Log.warn (fun m ->
                  m "corrupt cell %s (%s); it will be re-simulated" file reason);
              Corrupt reason))

let put t ~digest payload =
  Telemetry.Span.with_span ~cat:"store" ~args:[ ("digest", digest) ] "put"
  @@ fun () ->
  Telemetry.Metrics.Counter.inc puts_c;
  let data = frame payload in
  let tmp = Filename.temp_file ~temp_dir:t.root "put-" ".tmp" in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc data;
         (* Rename is atomic; without the flush-to-disk the window for
            a torn cell after a crash is the page cache, which the CRC
            catches on the next read. *)
         flush oc)
   with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp (path t ~digest)

let mem t ~digest = match find t ~digest with Hit _ -> true | _ -> false

let ls t =
  Sys.readdir t.root |> Array.to_list
  |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:cell_ext f)
  |> List.sort compare

let gc t ~keep =
  let removed = ref [] in
  let remove file =
    (try Sys.remove (Filename.concat t.root file) with Sys_error _ -> ());
    removed := file :: !removed
  in
  Array.iter
    (fun file ->
      match Filename.chop_suffix_opt ~suffix:cell_ext file with
      | None ->
          (* Anything that is not a cell is a leftover temp file from an
             interrupted writer; renames are atomic so these are never
             live. *)
          if Filename.check_suffix file ".tmp" then remove file
      | Some digest -> (
          match find t ~digest with
          | Hit payload -> if not (keep ~digest ~payload) then remove file
          | Miss -> ()
          | Corrupt _ -> remove file))
    (Sys.readdir t.root);
  List.sort compare !removed
