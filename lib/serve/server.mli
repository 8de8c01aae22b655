(** The resident mapping daemon: a Unix-domain-socket server feeding a
    bounded queue of connections to a pool of solver domains.

    Lifecycle: bind the socket (unlinking a stale one), loop accepting
    connections, and hand each whole connection to the {!Pool} as one
    task — a connection is a stream of line-delimited {!Protocol}
    requests, answered in order.  When the queue is full the connection
    is refused with a [busy] error instead of queueing unboundedly.

    Shutdown is graceful on SIGTERM, SIGINT or a [shutdown] request:
    the accept loop stops, in-flight requests run to completion (their
    deadlines bound the wait), idle connections are closed at the next
    0.25 s poll, the pool is drained and joined, and the socket is
    unlinked.  A request that exceeds its deadline gets a clean
    [timeout] verdict — it never kills the worker or the daemon. *)

type config = {
  socket_path : string;
  pool_size : int;  (** worker domains serving connections *)
  queue_capacity : int;  (** connections queued beyond the active ones; 0 = unbounded *)
  mrrg_capacity : int;  (** tier-1 cache entries (elaborated MRRGs) *)
  session_capacity : int;  (** tier-2 cache entries (live solver sessions) *)
  max_limit : float;  (** hard cap on any request's deadline, seconds *)
}

val max_line_bytes : int
(** Longest request line the daemon buffers (8 MiB, not configurable).
    A longer line gets a [too_large] error reply, its bytes are dropped
    up to the next newline, and the connection keeps being served. *)

val default_config : config
(** Socket [/tmp/cgra_serve.sock], 2 workers, queue 64, caches 32/16,
    max limit 120 s. *)

val run : ?on_ready:(unit -> unit) -> config -> (unit, string) result
(** Run the daemon until shutdown; blocks the calling domain.
    [on_ready] fires once the socket is listening (tests and the CLI
    use it to signal readiness).  [Error] reports bind/listen failures;
    a clean shutdown is [Ok ()]. *)
