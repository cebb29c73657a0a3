module Histogram = Lams_obs.Histogram
module Timer = Lams_util.Timer

type config = {
  shards : int;
  plan_capacity : int;
  sched_capacity : int;
  workers : int;
  high_water : int;
  log_path : string option;
  rotate_after : int;
}

let default_config =
  {
    shards = 8;
    plan_capacity = 4096;
    sched_capacity = 1024;
    workers = 4;
    high_water = 1024;
    log_path = None;
    rotate_after = 65536;
  }

type address = [ `Unix of string | `Tcp of string * int ]

type counters = {
  requests : int;
  hits : int;
  shed : int;
  protocol_errors : int;
  connections : int;
  refused : int;
  replayed : int;
}

(* [Open] reads and writes; [Closing] reads no more and is closed once
   its output is written; [Broken] (a failed read or write) is closed at
   the end of the round, its output dropped. *)
type state = Open | Closing | Broken

(* A connection belongs to one worker domain for its whole life: only
   that worker reads, writes or closes [fd]. [inbuf.[in_pos .. in_pos +
   in_len)] is input not yet cut into frames; [out] holds the response
   frames not yet written, the first one from [out_off], [out_bytes] in
   all. *)
type conn = {
  fd : Unix.file_descr;
  mutable inbuf : bytes;
  mutable in_pos : int;
  mutable in_len : int;
  out : bytes Queue.t;
  mutable out_off : int;
  mutable out_bytes : int;
  mutable state : state;
}

type job = { conn : conn; id : int; req : Wire.request; t0 : int64 }

(* The listener pushes accepted sockets onto [inbox] and writes a byte
   to [wake_w]; the worker, woken through [wake_r], adopts them into
   [conns], which no other thread touches. [quit] is set by [stop] once
   the listener has handed off its last socket. *)
type worker = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_mutex : Mutex.t;
  mutable inbox : Unix.file_descr list;
  mutable quit : bool;
  conns : (Unix.file_descr, conn) Hashtbl.t;
}

type t = {
  cfg : config;
  addr : address;
  listen_fd : Unix.file_descr;
  mutable reserve : Unix.file_descr option;
      (* held by the listener for refusing a connection when no
         descriptor is left *)
  plans : Store.Plan_store.t;
  scheds : Store.Sched_store.t;
  log : Plan_log.t option;
  replayed : int;
  workers : worker array;
  mutable next_worker : int;
  stopping : bool Atomic.t;
  c_requests : int Atomic.t;
  c_hits : int Atomic.t;
  c_shed : int Atomic.t;
  c_protocol_errors : int Atomic.t;
  c_connections : int Atomic.t;
  c_refused : int Atomic.t;
  latency : Histogram.t;  (** served latency since start, microseconds *)
  mutable worker_domains : unit Domain.t list;
  mutable listener : Thread.t option;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write [conn]'s pending output as far as the socket takes it. *)
let rec flush conn =
  match Queue.peek_opt conn.out with
  | None -> ()
  | Some frame -> (
      let len = Bytes.length frame - conn.out_off in
      match Unix.single_write conn.fd frame conn.out_off len with
      | n ->
          conn.out_bytes <- conn.out_bytes - n;
          if n = len then begin
            ignore (Queue.pop conn.out : bytes);
            conn.out_off <- 0;
            flush conn
          end
          else conn.out_off <- conn.out_off + n
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ ->
          Queue.clear conn.out;
          conn.out_bytes <- 0;
          conn.state <- Broken)

(* Queue one answer, and write it at once if nothing is ahead of it. *)
let respond conn id resp =
  if conn.state <> Broken then begin
    let frame = Wire.frame (Wire.encode_response ~id resp) in
    let idle = Queue.is_empty conn.out in
    Queue.push frame conn.out;
    conn.out_bytes <- conn.out_bytes + Bytes.length frame;
    if idle then flush conn
  end

let latency_summary t =
  let s = Histogram.snapshot t.latency in
  {
    Wire.d_count = s.count;
    d_min = s.min;
    d_mean = Histogram.mean s;
    d_p95 = Histogram.quantile s 0.95;
    d_max = s.max;
  }

let counters t =
  {
    requests = Atomic.get t.c_requests;
    hits = Atomic.get t.c_hits;
    shed = Atomic.get t.c_shed;
    protocol_errors = Atomic.get t.c_protocol_errors;
    connections = Atomic.get t.c_connections;
    refused = Atomic.get t.c_refused;
    replayed = t.replayed;
  }

let stats_payload t =
  let c = counters t in
  let ps = Lams_core.Plan_cache.Lru.stats t.plans
  and ss = Lams_sched.Cache.Lru.stats t.scheds in
  {
    Wire.s_counters =
      [
        ("serve.requests", c.requests);
        ("serve.hits", c.hits);
        ("serve.shed", c.shed);
        ("serve.protocol_errors", c.protocol_errors);
        ("serve.connections", c.connections);
        ("serve.refused", c.refused);
        ("serve.replayed", c.replayed);
        ("serve.plan_store.size", ps.size);
        ("serve.plan_store.hits", ps.hits);
        ("serve.plan_store.misses", ps.misses);
        ("serve.plan_store.evictions", ps.evictions);
        ("serve.sched_store.size", ss.size);
        ("serve.sched_store.hits", ss.hits);
        ("serve.sched_store.misses", ss.misses);
        ("serve.sched_store.evictions", ss.evictions);
      ];
    s_dists = [ ("serve.latency_us", latency_summary t) ];
  }

let finish t job resp =
  Histogram.record t.latency
    (Int64.to_float (Int64.sub (Timer.now_ns ()) job.t0) /. 1e3);
  respond job.conn job.id resp

let maybe_rotate t log =
  if t.cfg.rotate_after > 0 && Plan_log.appended log >= t.cfg.rotate_after then
    Plan_log.rotate log ~plans:t.plans ~scheds:t.scheds

let log_append_plan t key =
  match t.log with
  | None -> ()
  | Some log ->
      Plan_log.append_plan log key;
      maybe_rotate t log

let log_append_sched t key =
  match t.log with
  | None -> ()
  | Some log ->
      Plan_log.append_sched log key;
      maybe_rotate t log

let answer t job =
  match job.req with
  | Wire.Plan r -> (
      match Store.Plan_store.key_of_req r with
      | Error msg -> Wire.Error (Wire.E_invalid_request, msg)
      | Ok (key, _g_shift, local_shift) -> (
          match Store.Plan_store.find_key t.plans key with
          | exception _ -> Wire.Error (Wire.E_internal, "plan build failed")
          | v, hit ->
              if hit then Atomic.incr t.c_hits else log_append_plan t key;
              Wire.Plan_digest (Store.Plan_store.digest v ~local_shift ~hit)))
  | Wire.Schedule r | Wire.Redist r -> (
      match Store.Sched_store.key_of_req r with
      | Error msg -> Wire.Error (Wire.E_invalid_request, msg)
      | Ok (key, _src_shift, _dst_shift) -> (
          match Store.Sched_store.find_key t.scheds key with
          | exception _ -> Wire.Error (Wire.E_internal, "schedule build failed")
          | v, hit -> (
              if hit then Atomic.incr t.c_hits else log_append_sched t key;
              match job.req with
              | Wire.Schedule _ ->
                  Wire.Sched_digest (Store.Sched_store.sched_digest v ~hit)
              | _ ->
                  Wire.Redist_digest (Store.Sched_store.redist_digest v ~hit))))
  | Wire.Stats -> Wire.Stats_reply (stats_payload t)

let shed t job =
  Atomic.incr t.c_shed;
  respond job.conn job.id Wire.Overloaded

let protocol_error t conn fe =
  Atomic.incr t.c_protocol_errors;
  let code, msg = Wire.error_of_frame_error fe in
  conn.state <- Closing;
  respond conn 0 (Wire.Error (code, msg))

(* Answer one round's requests in arrival order: the first [cap], then
   [Overloaded] for the rest, so a connection's answers keep its
   request order. *)
let serve_round t jobs ~cap =
  List.iteri
    (fun n job ->
      if n < cap then (try finish t job (answer t job) with _ -> ())
      else shed t job)
    jobs

(* Space kept free in an input buffer before each read. *)
let min_read = 4096

(* A connection whose unwritten output passes this many bytes is not
   read until the peer takes some of it, so a client that never reads
   holds a bounded amount of the daemon's memory. *)
let out_cap = 1 lsl 20

let make_room conn =
  let cap = Bytes.length conn.inbuf in
  if conn.in_pos + conn.in_len + min_read > cap then begin
    let data =
      if conn.in_len + min_read <= cap then conn.inbuf
      else Bytes.create (max (2 * cap) (conn.in_len + min_read))
    in
    Bytes.blit conn.inbuf conn.in_pos data 0 conn.in_len;
    conn.inbuf <- data;
    conn.in_pos <- 0
  end

(* Cut every whole frame out of [conn]'s input, in arrival order. A
   framing or decoding error is answered and ends the connection. *)
let rec cut_requests t conn ~eof acc =
  if conn.state <> Open then List.rev acc
  else
    match Wire.cut_frame conn.inbuf ~pos:conn.in_pos ~len:conn.in_len ~eof with
    | `Need_more -> List.rev acc
    | `Eof ->
        conn.state <- Closing;
        List.rev acc
    | `Error fe ->
        protocol_error t conn fe;
        List.rev acc
    | `Frame (payload, used) -> (
        conn.in_pos <- conn.in_pos + used;
        conn.in_len <- conn.in_len - used;
        match Wire.decode_request payload with
        | Error fe ->
            protocol_error t conn fe;
            List.rev acc
        | Ok (id, req) ->
            Atomic.incr t.c_requests;
            cut_requests t conn ~eof
              ({ conn; id; req; t0 = Timer.now_ns () } :: acc))

(* One non-blocking read, then every whole frame it completed. *)
let read_requests t conn =
  make_room conn;
  let free = Bytes.length conn.inbuf - conn.in_pos - conn.in_len in
  match Unix.read conn.fd conn.inbuf (conn.in_pos + conn.in_len) free with
  | 0 -> cut_requests t conn ~eof:true []
  | n ->
      conn.in_len <- conn.in_len + n;
      cut_requests t conn ~eof:false []
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      []
  | exception Unix.Unix_error _ ->
      conn.state <- Broken;
      []

let wake_byte = Bytes.make 1 'w'

(* A full pipe already holds a pending wake-up. *)
let wake w =
  try ignore (Unix.single_write w.wake_w wake_byte 0 1 : int)
  with Unix.Unix_error _ -> ()

(* Empty the wake pipe, take over the sockets handed off since the last
   round, and say whether [stop] has asked this worker to finish. *)
let adopt w =
  let scratch = Bytes.create 64 in
  (try
     while Unix.read w.wake_r scratch 0 64 > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  Mutex.lock w.inbox_mutex;
  let fds = w.inbox and quit = w.quit in
  w.inbox <- [];
  Mutex.unlock w.inbox_mutex;
  List.iter
    (fun fd ->
      match Unix.set_nonblock fd with
      | () ->
          Hashtbl.replace w.conns fd
            {
              fd;
              inbuf = Bytes.create min_read;
              in_pos = 0;
              in_len = 0;
              out = Queue.create ();
              out_off = 0;
              out_bytes = 0;
              state = Open;
            }
      | exception Unix.Unix_error _ -> close_fd fd)
    fds;
  quit

let reap w =
  Hashtbl.filter_map_inplace
    (fun fd conn ->
      match conn.state with
      | Open -> Some conn
      | Closing when conn.out_bytes > 0 -> Some conn
      | Closing | Broken ->
          close_fd fd;
          None)
    w.conns

let pending w =
  Hashtbl.fold
    (fun fd conn acc -> if conn.out_bytes > 0 then fd :: acc else acc)
    w.conns []

(* How long a stopping worker waits for its peers to take what it owes
   them. *)
let drain_wait = 0.5

(* The last round: read every connection once more and shed what it
   sent, write what is owed within [drain_wait], close everything. *)
let finish_worker t w =
  let jobs =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.state = Open then read_requests t conn @ acc else acc)
      w.conns []
  in
  List.iter (shed t) jobs;
  let deadline = Unix.gettimeofday () +. drain_wait in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    match pending w with
    | [] -> ()
    | _ when left <= 0. -> ()
    | fds -> (
        match Unix.select [] fds [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | _, [], _ -> ()
        | _, ready, _ ->
            List.iter (fun fd -> flush (Hashtbl.find w.conns fd)) ready;
            drain ())
  in
  drain ();
  Hashtbl.iter (fun fd _ -> close_fd fd) w.conns;
  Hashtbl.reset w.conns

(* One readiness round over the worker's own sockets: adopt new ones,
   write what the sockets now take, read every readable connection once
   and answer all the whole frames that arrived, as one batch. *)
let rec worker_loop t w =
  let reads =
    Hashtbl.fold
      (fun fd conn acc ->
        if conn.state = Open && conn.out_bytes <= out_cap then fd :: acc
        else acc)
      w.conns [ w.wake_r ]
  in
  match Unix.select reads (pending w) [] (-1.) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> worker_loop t w
  | readable, writable, _ ->
      let quit = List.mem w.wake_r readable && adopt w in
      List.iter (fun fd -> flush (Hashtbl.find w.conns fd)) writable;
      let jobs =
        List.concat_map
          (fun fd ->
            if fd = w.wake_r then []
            else read_requests t (Hashtbl.find w.conns fd))
          readable
      in
      serve_round t jobs ~cap:t.cfg.high_water;
      reap w;
      if quit then finish_worker t w else worker_loop t w

(* [Unix.select] rejects a descriptor at or past FD_SETSIZE (EINVAL): a
   socket no worker could watch is closed at the door. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

let hand_off t fd =
  if selectable fd then begin
    Atomic.incr t.c_connections;
    let w = t.workers.(t.next_worker) in
    t.next_worker <- (t.next_worker + 1) mod Array.length t.workers;
    Mutex.lock w.inbox_mutex;
    w.inbox <- fd :: w.inbox;
    Mutex.unlock w.inbox_mutex;
    wake w
  end
  else begin
    Atomic.incr t.c_refused;
    close_fd fd
  end

let take_reserve t =
  t.reserve <-
    (try Some (Unix.dup ~cloexec:true t.listen_fd)
     with Unix.Unix_error _ -> None)

(* [accept] found no descriptor free, so the pending connection stays
   pending and [select] would report it again at once. Spend the
   reserve on accepting it, close it at once (its client sees EOF) and
   take the reserve back; without a reserve, wait one poll instead of
   spinning. *)
let refuse_pending t =
  match t.reserve with
  | None ->
      Thread.delay 0.25;
      take_reserve t
  | Some fd ->
      close_fd fd;
      (match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          Atomic.incr t.c_refused;
          close_fd fd);
      take_reserve t

(* The listen backlog, which also caps the drain at [stop]. *)
let backlog = 128

(* Polls the listening socket and hands each client to a worker. Once
   [stopping] is set it drains instead: clients that connected before
   the flag still sit in the accept backlog, and closing the listening
   socket would reset them. It polls without waiting (zero timeout,
   non-blocking socket) and hands each pending client to a worker,
   which sheds and closes it like any other connection, until nothing
   is pending. The drain makes at most [backlog] tries, so clients that
   keep arriving cannot hold [stop] up, and gives the rest up when no
   descriptor is free and no reserve is left. *)
let listener_loop t =
  let rec loop ~drained =
    let stopping = Atomic.get t.stopping in
    if stopping && drained = 0 then Unix.set_nonblock t.listen_fd;
    if stopping && drained >= backlog then ()
    else
      let next = if stopping then drained + 1 else drained
      and timeout = if stopping then 0. else 0.25 in
      match Unix.select [ t.listen_fd ] [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ~drained:next
      | [], _, _ -> if not stopping then loop ~drained
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
              if not (stopping && Option.is_none t.reserve) then begin
                refuse_pending t;
                loop ~drained:next
              end
          | exception Unix.Unix_error _ -> loop ~drained:next
          | fd, _ ->
              hand_off t fd;
              loop ~drained:next)
  in
  loop ~drained:0

let bind_address addr =
  match addr with
  | `Unix path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd backlog;
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (try Unix.bind fd (Unix.ADDR_INET (inet, port)) with
      | e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e);
      Unix.listen fd backlog;
      fd

let new_worker () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    wake_r;
    wake_w;
    inbox_mutex = Mutex.create ();
    inbox = [];
    quit = false;
    conns = Hashtbl.create 16;
  }

let start cfg addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let cfg =
    {
      cfg with
      shards = max 1 cfg.shards;
      workers = max 1 cfg.workers;
      high_water = max 0 cfg.high_water;
    }
  in
  let plans =
    Store.Plan_store.create ~shards:cfg.shards ~capacity:cfg.plan_capacity ()
  in
  let scheds =
    Store.Sched_store.create ~shards:cfg.shards ~capacity:cfg.sched_capacity ()
  in
  let replayed, log =
    match cfg.log_path with
    | None -> (0, None)
    | Some path ->
        let warmed = Plan_log.replay path ~plans ~scheds in
        (warmed, Some (Plan_log.open_log path))
  in
  let listen_fd = bind_address addr in
  let t =
    {
      cfg;
      addr;
      listen_fd;
      reserve = None;
      plans;
      scheds;
      log;
      replayed;
      workers = Array.init cfg.workers (fun _ -> new_worker ());
      next_worker = 0;
      stopping = Atomic.make false;
      c_requests = Atomic.make 0;
      c_hits = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_protocol_errors = Atomic.make 0;
      c_connections = Atomic.make 0;
      c_refused = Atomic.make 0;
      latency = Histogram.create ();
      worker_domains = [];
      listener = None;
    }
  in
  t.worker_domains <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) t.workers);
  take_reserve t;
  t.listener <- Some (Thread.create (fun () -> listener_loop t) ());
  t

let stop t =
  if Atomic.compare_and_set t.stopping false true then begin
    (* Once the listener is joined no socket is in flight to a worker,
       so a worker told to quit owns every connection it will ever get.
       Each answers what it has read, sheds what one last read brings,
       writes what it owes and closes its connections. *)
    Option.iter Thread.join t.listener;
    Array.iter
      (fun w ->
        Mutex.lock w.inbox_mutex;
        w.quit <- true;
        Mutex.unlock w.inbox_mutex;
        wake w)
      t.workers;
    List.iter Domain.join t.worker_domains;
    Option.iter close_fd t.reserve;
    close_fd t.listen_fd;
    Array.iter
      (fun w ->
        close_fd w.wake_r;
        close_fd w.wake_w)
      t.workers;
    (match t.log with
    | None -> ()
    | Some log ->
        Plan_log.flush log;
        Plan_log.close log);
    match t.addr with
    | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ -> ()
  end

let run cfg addr =
  let stop_flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let t = start cfg addr in
  (match addr with
  | `Unix path -> Printf.printf "listening on unix:%s\n%!" path
  | `Tcp (host, port) -> Printf.printf "listening on tcp:%s:%d\n%!" host port);
  while not (Atomic.get stop_flag) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop t
