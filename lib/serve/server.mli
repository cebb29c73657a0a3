(** The plan-compilation daemon behind [lams serve].

    {b Connections.} One listener thread accepts sockets and hands each
    one, round-robin, to a worker {e domain} (an inbox under a mutex
    and one byte down the worker's wake pipe). That worker owns the
    connection for its whole life: it alone reads, writes and closes
    it. Each worker multiplexes its non-blocking sockets with
    [Unix.select]; in one readiness round it reads every readable
    connection once, cuts the whole frames out of that connection's
    input buffer ({!Wire.cut_frame}) and answers them inline, one store
    lookup each (one build on a miss), in arrival order. Answers queue
    per connection and are written as far as the socket takes them.
    Lookups go through the sharded stores ({!Store}), so workers contend
    only on same-shard keys. The daemon runs the main thread, the
    listener and the workers, whatever the number of clients.

    {b Bounds.} A connection whose unwritten output passes 1 MiB is not
    read until its peer takes some, so a client that never reads holds
    a bounded share of memory and stalls nobody else. A round answers
    at most [high_water] requests per worker; the rest get [Overloaded]
    ([high_water = 0] sheds everything — a test hook). [Unix.select]
    cannot watch a descriptor at or past FD_SETSIZE (1024 on Linux), so
    a socket accepted on such a descriptor is closed at once and counted
    in [refused]; in a process of its own that caps the daemon near a
    thousand live connections. When the process has no descriptor left
    ([EMFILE]/[ENFILE]), the listener closes a descriptor it holds in
    reserve, accepts the pending connection on it, closes that at once
    (the client sees EOF), counts it in [refused] and takes the reserve
    back, so a full descriptor table refuses clients instead of leaving
    them pending while the listener retries in a loop.

    {b Stop.} [stop] stops the listener, which first accepts the
    clients still in the accept backlog, without waiting and in at most
    as many tries as the backlog holds (128), and hands them to the
    workers (closing the listening socket would reset them). Then it
    has each worker answer what it has read, read every connection once
    more and answer each whole frame there [Overloaded], write what it
    owes (waiting at most half a second for slow peers) and close its
    connections; the plan log is flushed last. Every request the daemon has read is answered,
    and a SIGTERM never loses a logged key. *)

type config = {
  shards : int;  (** store shards (clamped to [>= 1]) *)
  plan_capacity : int;
  sched_capacity : int;
  workers : int;
      (** worker domains, each owning the connections handed to it
          (clamped to [>= 1]) *)
  high_water : int;
      (** requests one worker answers per readiness round; the excess
          is shed, and [0] sheds all *)
  log_path : string option;  (** plan log; [None] disables persistence *)
  rotate_after : int;  (** rotate the log every this many appends *)
}

val default_config : config
(** 8 shards, 4096/1024 capacities, 4 workers, high water 1024, no log,
    rotate every 65536 appends. *)

type address = [ `Unix of string | `Tcp of string * int ]

type counters = {
  requests : int;  (** decoded requests, shed or served *)
  hits : int;  (** requests answered from a store *)
  shed : int;  (** [Overloaded] answers *)
  protocol_errors : int;  (** framing/decode failures answered [Error] *)
  connections : int;  (** connections served over the lifetime *)
  refused : int;
      (** sockets closed on accept: descriptor past FD_SETSIZE, or none
          free but the listener's reserve *)
  replayed : int;  (** entries warmed from the plan log at startup *)
}

type t

val start : config -> address -> t
(** Bind, replay the plan log (if any), spawn the workers and the
    listener. An existing socket file at a [`Unix] path is replaced.
    @raise Unix.Unix_error if the address cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown as described above. Idempotent. *)

val counters : t -> counters

val run : config -> address -> unit
(** [start], then block until SIGTERM or SIGINT, then [stop]. Installs
    the signal handlers (and ignores SIGPIPE); prints one
    [listening on ...] line to stdout when ready. *)
