module Deadline = Cgra_util.Deadline
module Pool = Cgra_sweep.Pool

type config = {
  socket_path : string;
  pool_size : int;
  queue_capacity : int;
  mrrg_capacity : int;
  session_capacity : int;
  max_limit : float;
}

let default_config =
  {
    socket_path = "/tmp/cgra_serve.sock";
    pool_size = 2;
    queue_capacity = 64;
    mrrg_capacity = 32;
    session_capacity = 16;
    max_limit = 120.0;
  }

(* Full write: reply lines are small, but a stream socket may still
   accept them in pieces.  EPIPE (client gone) is the caller's cue to
   close, not a daemon failure. *)
let write_all fd s =
  let payload = Bytes.of_string s in
  let len = Bytes.length payload in
  let rec go off =
    if off < len then
      let n = Unix.write fd payload off (len - off) in
      go (off + n)
  in
  go 0

let send_response fd response =
  try
    write_all fd (Protocol.response_to_line response ^ "\n");
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* Dispatch one parsed line.  Returns [false] when the connection must
   close (shutdown acknowledged, or the peer vanished). *)
let serve_line ~engine ~pool ~stop fd line =
  match Protocol.request_of_line line with
  | Error (code, message) ->
      send_response fd
        { Protocol.r_id = None; reply = Protocol.Error_reply { code; message } }
  | Ok { Protocol.id; payload } -> (
      let respond reply = send_response fd { Protocol.r_id = id; reply } in
      match payload with
      | Protocol.Ping -> respond Protocol.Ok_reply
      | Protocol.Stats ->
          respond (Protocol.Stats_reply (Engine.stats engine ~pool_workers:(Pool.workers pool)))
      | Protocol.Shutdown ->
          ignore (respond Protocol.Ok_reply);
          Atomic.set stop true;
          false
      | Protocol.Map m ->
          if Atomic.get stop then
            respond
              (Protocol.Error_reply
                 { code = "shutting_down"; message = "daemon is draining; retry elsewhere" })
          else
            respond
              (match Engine.handle_map engine m with
              | Ok verdict -> Protocol.Verdict verdict
              | Error (code, message) -> Protocol.Error_reply { code; message }))

let max_line_bytes = 8 * 1024 * 1024

(* One whole connection: a line-buffered read loop that polls the stop
   flag every 0.25 s so an idle keep-alive connection cannot hold the
   drain hostage.  In-flight requests (inside [serve_line]) finish
   normally — their deadlines bound the wait.  Only the bytes of each
   read are scanned for a newline, so a long line costs linear time; a
   line that outgrows [max_line_bytes] is answered [too_large] as soon
   as it does, and its remaining bytes are dropped up to the newline. *)
let serve_connection ~engine ~pool ~stop fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let discarding = ref false in
  let too_large () =
    Buffer.reset buf;
    send_response fd
      {
        Protocol.r_id = None;
        reply =
          Protocol.Error_reply
            {
              code = "too_large";
              message = Printf.sprintf "request line exceeds %d bytes" max_line_bytes;
            };
      }
  in
  (* Consume chunk[off, n): serve every line it completes, buffer the
     tail.  [false] when the connection must close. *)
  let rec feed off n =
    let rec newline i =
      if i >= n then None else if Bytes.get chunk i = '\n' then Some i else newline (i + 1)
    in
    match newline off with
    | None ->
        if !discarding then true
        else if Buffer.length buf + (n - off) > max_line_bytes then begin
          discarding := true;
          too_large ()
        end
        else begin
          Buffer.add_subbytes buf chunk off (n - off);
          true
        end
    | Some i when !discarding ->
        discarding := false;
        feed (i + 1) n
    | Some i when Buffer.length buf + (i - off) > max_line_bytes -> too_large () && feed (i + 1) n
    | Some i ->
        Buffer.add_subbytes buf chunk off (i - off);
        let line = String.trim (Buffer.contents buf) in
        Buffer.clear buf;
        (line = "" || serve_line ~engine ~pool ~stop fd line) && feed (i + 1) n
  in
  let rec loop () =
    if Atomic.get stop then ()
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> () (* peer closed *)
          | n -> if feed 0 n then loop ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ())
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) loop

let run ?(on_ready = fun () -> ()) config =
  (* A client that disconnects mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  (* A stale socket from a crashed daemon would make bind fail; a
     live daemon on the same path loses the race and reports it. *)
  (match (Unix.lstat config.socket_path).Unix.st_kind with
  | Unix.S_SOCK -> ( try Unix.unlink config.socket_path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64)
  with
  | exception Unix.Unix_error (err, fn, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot listen on %s: %s (%s)" config.socket_path
               (Unix.error_message err) fn)
  | () ->
      let engine =
        Engine.create ~mrrg_capacity:config.mrrg_capacity
          ~session_capacity:config.session_capacity ~max_limit:config.max_limit ()
      in
      let pool =
        Pool.create ~queue_capacity:config.queue_capacity ~workers:(max 1 config.pool_size) ()
      in
      on_ready ();
      let rec accept_loop () =
        if Atomic.get stop then ()
        else
          match Unix.select [ listen_fd ] [] [] 0.25 with
          | [], _, _ -> accept_loop ()
          | _ -> (
              match Unix.accept listen_fd with
              | exception Unix.Unix_error _ -> accept_loop ()
              | fd, _ ->
                  let accepted =
                    Pool.submit pool (fun () -> serve_connection ~engine ~pool ~stop fd)
                  in
                  if not accepted then begin
                    (* Overload is an answer, not a queue: refuse
                       loudly so the client can back off or retry. *)
                    ignore
                      (send_response fd
                         {
                           Protocol.r_id = None;
                           reply =
                             Protocol.Error_reply
                               { code = "busy"; message = "request queue full" };
                         });
                    (try Unix.close fd with Unix.Unix_error _ -> ())
                  end;
                  accept_loop ())
      in
      accept_loop ();
      (* Drain: every accepted connection runs to completion (idle ones
         notice the stop flag within 0.25 s), then the workers join. *)
      Pool.shutdown pool;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
      Ok ()
