(** The overload-resilient HTTP/1.1 front end over the {!Service} layer.

    Dependency-free: plain [Unix] sockets, OCaml domains for workers,
    one acceptor thread plus a small reader pool. The acceptor never
    reads from a client — accepted connections go through a bounded
    queue to the readers, each of which parses under a whole-request
    deadline — so a slow or drip-feeding client can never stall
    admission, health checks, or the drain trigger. Overload behaviour
    is the design center, not an afterthought:

    - {b Admission control.} Every [POST /generate] passes a per-client
      token bucket (429 + [Retry-After] when a peer floods), then an
      admission-time quarantine check (429 without costing a worker when
      the template's circuit breaker is open), then a fixed-capacity
      queue. A full queue answers [503 + Retry-After] immediately —
      latency for admitted requests stays bounded instead of collapsing
      for everyone.
    - {b Governance end-to-end.} The [X-Deadline-Ms] header (or the
      configured default) becomes the evaluator's own deadline, covering
      queue wait; resource errors come back as structured JSON bodies
      carrying the [resource:*] code (422/504).
    - {b Connection efficiency.} With [keepalive] on, connections are
      persistent HTTP/1.1: a per-connection request loop with pipelined
      overshoot carried between parses, one pooled parse/serialize
      buffer per connection (cleared, never reallocated), responses
      written head+body in a single [write], and an idle watcher that
      parks quiet connections so readers only ever touch sockets with
      bytes. Off by default — one request per connection, exactly the
      pre-PR-7 wire behaviour.
    - {b Lifecycle.} [SIGTERM] (or {!drain}) stops admitting, answers
      queued requests 503, tightens every in-flight evaluation's
      deadline to the drain deadline via {!Service.preempt_inflight},
      and exits cleanly. A crashed worker domain is restarted by the
      supervisor ([worker_restarts] counter) instead of taking the
      process down. [/healthz] is liveness; [/readyz] flips during drain
      and when the windowed shed rate crosses a threshold; [/metrics] is
      Prometheus text. *)

module Http = Http
module Token_bucket = Token_bucket
module Admission = Admission
module Metrics = Metrics
module Brownout = Brownout
module Fair_queue = Fair_queue
module Buffer_pool = Buffer_pool
module Composite = Composite
module Frame = Frame
module Recorder = Recorder
module Store = Store

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker domains executing requests *)
  queue_cap : int;  (** admission queue capacity; beyond it, shed *)
  tenant_cap : int;
      (** per-tenant bulkhead within the admission queue (tenant =
          [X-Tenant] header, else peer address); a tenant past its cap
          gets its own 429s while other tenants keep their queue space.
          Clamped to [queue_cap]; the default ([max_int]) disables the
          bulkhead, i.e. the PR-4 single global FIFO. *)
  rate : float;  (** per-peer token-bucket refill, requests/s; 0 disables *)
  burst : float;  (** per-peer bucket size *)
  default_deadline_s : float option;
      (** generation deadline when the client sends no [X-Deadline-Ms] *)
  drain_deadline_s : float;
      (** how long {!drain} lets in-flight requests finish before their
          deadlines are tightened to "now" *)
  shed_unready_threshold : float;
      (** [/readyz] flips to 503 when the shed fraction over the metrics
          window reaches this *)
  io_timeout_s : float;  (** socket receive/send timeout per connection *)
  max_body_bytes : int;
  default_engine : Docgen.engine;
  model : Service.model_source option;
      (** the model requests generate against when the body carries no
          inline [<model>] section; [None] = banking sample *)
  fault : Service.Fault.config option;
      (** server-side fault injection; the [Crash] kind and the
          [load_signal] brownout override are read here (the service's
          own config covers the rest) *)
  brownout : Brownout.config option;
      (** graceful-degradation controller; [None] (the default)
          disables brownout entirely — the server sheds exactly as
          PR 4 did. When enabled, Degraded mode serves stale cache
          hits ([Warning: 110], [X-Degraded: stale]) and generates
          skeletons on misses ([X-Degraded: skeleton]); Critical mode
          serves only cache hits and sheds the rest. *)
  keepalive : bool;
      (** persistent HTTP/1.1 connections; off (one request per
          connection) by default *)
  idle_timeout_s : float;
      (** keep-alive: close a connection parked this long between
          requests *)
  max_conn_requests : int;
      (** keep-alive: answer at most this many requests per connection,
          then [Connection: close] — bounds how long one client can pin
          a pooled buffer *)
  recorder : Recorder.t option;
      (** when set, every admitted request ([/generate] and store
          writes/queries) is captured into this ring (method, path,
          tenant, deadline, body, monotonic timestamp) for later
          replay — the [--record] flag *)
  store : Store.t option;
      (** the crash-safe persistent collection store behind
          [PUT/GET/DELETE /collections/:name/docs/:id] and
          [POST /collections/:name/query] (where [doc()] resolves
          against the named collection). Reads are answered inline;
          writes and queries pass through admission — drain, rate
          limit, critical-brownout shed, fair-queue bulkheads,
          recorder capture. [None] (the default) answers the store
          routes 503 [no-store]. *)
  repl : Store.Replica.t option;
      (** when set, the store routes are served by this replicated
          cluster instead of [store]: PUT/DELETE are acknowledged only
          after a write quorum of backends has fsync'd the record
          (503 [store:unavailable] + Retry-After short of quorum), and
          reads follow the primary through failover. Shut down with the
          server's drain. *)
  scrub_interval_s : float;
      (** > 0 runs one incremental online-scrub pass against the local
          [store] on this cadence from a background thread —
          checksum-verifying live segments and quarantining rot — the
          [--scrub-interval] flag. Replicated backends scrub
          themselves; see {!Store.Replica.config}. *)
}

val default_config : config
(** Loopback, ephemeral port, 4 workers, queue 64, no tenant bulkhead,
    rate limiting off, no default deadline, 5 s drain, readyz threshold
    0.9, 2 s socket timeouts, 4 MiB bodies, host engine, banking model,
    no faults, brownout off, keep-alive off (5 s idle, 1000 requests
    per connection when enabled). *)

type t

val create : ?config:config -> Service.t -> t

val config : t -> config

val start : t -> unit
(** Bind, listen, spawn the workers, the readers, the supervisor, the
    idle watcher (keep-alive only), and the acceptor; returns once the
    server is accepting. Also ignores [SIGPIPE] process-wide: a peer
    that hangs up before its response is written must surface as a
    catchable [EPIPE], not a fatal signal. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val ready : t -> bool
(** What [/readyz] reports: not draining, shed rate under threshold. *)

val draining : t -> bool

val drain : t -> unit
(** Graceful drain: stop admitting work (readyz flips immediately),
    answer everything queued-but-unstarted with 503, let in-flight
    requests run up to [drain_deadline_s] (their evaluator deadlines are
    tightened, so overruns die with a structured [resource:deadline]),
    close idle keep-alive connections, then stop every thread and close
    the listener. Idempotent; blocks until the server is fully
    stopped. *)

val stopped : t -> bool

val await : t -> unit
(** Block until the server has fully stopped (i.e. a drain completed). *)

val install_sigterm : t -> unit
(** Route [SIGTERM] to {!drain}: the handler sets a flag, the acceptor
    notices within its poll interval and drains on a separate thread.
    Call at most once per process; the handler owns the signal. *)

val install_sighup : t -> unit
(** Route [SIGHUP] to {!reload} the same way (flag, acceptor poll,
    separate thread). *)

val reload : t -> unit
(** Zero-downtime reload: {!Service.reload} — compiled-artifact caches
    cleared, quarantine breakers closed. *)

val metrics : t -> Metrics.t
val service : t -> Service.t
val queue_depth : t -> int
val inflight : t -> int

val mode : t -> Brownout.mode
(** One brownout-controller step against the live load signals (or the
    {!Service.Fault} [load_signal] override), returning the resulting
    mode. [Normal] always when brownout is off. [/metrics] calls this
    too, so scraping alone observes recovery. *)

val current_mode : t -> Brownout.mode
(** The mode as last evaluated, without stepping the controller — what
    the [X-Service-Mode] response header reports. *)

val metrics_body : t -> string
(** The full [/metrics] payload: service exposition + server exposition
    (+ the store or replica exposition when one is attached). *)
