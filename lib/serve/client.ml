type t = { fd : Unix.file_descr }

type error =
  | Timeout of float
  | Closed
  | Transport of string

let error_to_string = function
  | Timeout s -> Printf.sprintf "receive timeout after %gs" s
  | Closed -> "server closed the connection"
  | Transport msg -> msg

let connect ?timeout addr =
  let domain, sockaddr =
    match addr with
    | Protocol.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Protocol.Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Protocol.resolve_host host, port))
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (* A server dropping the connection mid-request must surface as
     EPIPE, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try
     (* A wedged or half-open server fails the read with EAGAIN after
        [timeout] seconds instead of hanging the client forever. *)
     (match timeout with
     | Some s when s > 0. -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
     | Some _ | None -> ());
     Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let timeout_of t =
  match Unix.getsockopt_float t.fd Unix.SO_RCVTIMEO with
  | s when s > 0. -> s
  | _ -> 0.
  | exception Unix.Unix_error _ -> 0.

let request ?id t req =
  match
    Protocol.write_frame t.fd (Protocol.encode_request ?id req);
    Protocol.read_frame t.fd
  with
  | Result.Ok (Some { frame; off; len }) -> (
      match Protocol.decode_response ~off ~len frame with
      | Result.Ok (resp, _) -> Result.Ok resp
      | Result.Error e ->
          Result.Error (Transport (Protocol.decode_error_to_string e)))
  | Result.Ok None -> Result.Error Closed
  | Result.Error reason -> Result.Error (Transport reason)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Result.Error (Timeout (timeout_of t))
  | exception Unix.Unix_error (err, _, _) ->
      Result.Error (Transport (Unix.error_message err))

let with_connection ?timeout addr f =
  let t = connect ?timeout addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ---- plain HTTP ----------------------------------------------------- *)

(* Enough HTTP/1.1 to poll the server's own observability endpoints
   (/metrics, /status, /health) without a curl dependency: one GET with
   Connection: close, read to EOF, split head from body. *)
let http_get ?timeout addr path =
  match
    with_connection ?timeout addr (fun t ->
        let req =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: loclab\r\nConnection: close\r\n\r\n"
            path
        in
        let rec send pos len =
          if len > 0 then begin
            let n =
              try Unix.write_substring t.fd req pos len
              with Unix.Unix_error (Unix.EINTR, _, _) -> 0
            in
            send (pos + n) (len - n)
          end
        in
        send 0 (String.length req);
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Result.Error
        (Timeout (match timeout with Some s when s > 0. -> s | _ -> 0.))
  | exception Unix.Unix_error (err, _, _) ->
      Result.Error (Transport (Unix.error_message err))
  | raw -> (
      match String.index_opt raw ' ' with
      | None -> Result.Error (Transport "malformed HTTP response")
      | Some sp -> (
          let status =
            let stop =
              match String.index_from_opt raw (sp + 1) ' ' with
              | Some j -> j
              | None -> String.length raw
            in
            String.sub raw (sp + 1) (stop - sp - 1)
          in
          let rec find_body i =
            if i + 3 >= String.length raw then None
            else if
              raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
              && raw.[i + 3] = '\n'
            then Some (i + 4)
            else find_body (i + 1)
          in
          match find_body 0 with
          | None -> Result.Error (Transport "HTTP response has no body")
          | Some body_at ->
              let body =
                String.sub raw body_at (String.length raw - body_at)
              in
              if status = "200" then Result.Ok body
              else
                Result.Error
                  (Transport (Printf.sprintf "HTTP %s: %s" status
                                (String.trim body)))))
