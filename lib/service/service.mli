(** The request/response document-generation service.

    Wraps the unified docgen engine API ({!Docgen.generate}) in a
    production shape: size-bounded LRU caches for compiled artifacts
    (parsed templates, imported models, compiled XQuery programs) keyed
    by content hash and shared across domains behind one mutex; batch
    fan-out over OCaml 5 domains with work stealing ({!Pool}); per-request
    deadlines; and an error-isolating result type so one failing template
    cannot take down a batch. Counters expose cache behaviour and
    per-phase timings to the bench harness (experiment E8).

    Requests are resource-governed: the request deadline (and any
    configured fuel / recursion-depth / node budgets) is wired into the
    evaluator's own {!Xquery.Context.limits}, so a runaway query is
    preempted mid-walk on both evaluators, not just noticed between
    phases. Declared-transient failures retry with exponential backoff,
    fast-evaluator faults degrade to one seed-evaluator re-run, and a
    template that keeps failing is quarantined behind a content-hash
    circuit breaker for a cooldown. {!Fault} injects all four failure
    modes deterministically. *)

module Lru = Lru
(** The size-bounded LRU the caches are built on. *)

module Pool = Pool
(** The work-stealing domain pool batches run on. *)

module Fault = Fault
(** Deterministic fault injection (tests and chaos drills). *)

(** {1 Requests} *)

type template_source =
  | Template_xml of string
      (** parsed + whitespace-stripped once, cached by content hash *)
  | Template_node of Xml_base.Node.t  (** pre-parsed; bypasses the cache *)

type model_source =
  | Model_xml of { metamodel : Awb.Metamodel.t; xml : string }
      (** imported once per (metamodel, content) pair, cached *)
  | Model_value of Awb.Model.t  (** pre-built; bypasses the cache *)

type request = {
  id : string;  (** echoed back in the response *)
  template : template_source;
  model : model_source;
  engine : Docgen.engine;
  backend : Docgen.Spec.query_backend option;
  deadline : float option;  (** seconds from submission; overrides the config *)
  level : Docgen.Spec.level;
      (** degradation level handed to the engine; [Skeleton] skips the
          enrichment phases (brownout mode) *)
}

val request :
  ?engine:Docgen.engine ->
  ?backend:Docgen.Spec.query_backend ->
  ?deadline:float ->
  ?level:Docgen.Spec.level ->
  id:string ->
  template:template_source ->
  model:model_source ->
  unit ->
  request
(** Convenience constructor; [engine] defaults to [`Host], [level] to
    [Full]. *)

(** {1 Responses} *)

type error =
  | Template_error of string  (** template failed to parse *)
  | Model_error of string  (** model XML failed to parse or import *)
  | Generation_failed of { code : string; message : string; location : string }
      (** the engine reported a generation error; [code] is the
          structured error code (["err:XPTY0004"], ["transient"], ...)
          when one exists, [""] otherwise *)
  | Resource_exhausted of { resource : Xquery.Errors.resource; message : string }
      (** a fuel / depth / node / stack / memory budget tripped
          mid-generation (deadline trips surface as
          {!Deadline_exceeded}) *)
  | Deadline_exceeded of { elapsed_s : float; deadline_s : float }
  | Quarantined of { template : string; retry_after_s : float }
      (** the template's circuit breaker is open; [template] is its
          content hash *)
  | Internal_error of string  (** anything else; never kills the batch *)

val error_to_string : error -> string

type timings = {
  template_s : float;
  model_s : float;
  generate_s : float;
  serialize_s : float;
  total_s : float;
}

type output = {
  document : string;  (** the serialized document *)
  problems : string list;
  stats : Docgen.Spec.stats;
  engine_used : Docgen.engine;
  timings : timings;
}

type response = { request_id : string; result : (output, error) result }

(** {1 The service} *)

type config = {
  domains : int;  (** default width of {!run_batch}; 1 = serial *)
  mode : Xquery.Engine.Exec_opts.mode;
      (** execution mode for XQuery-backed work: [Fast] (default) or
          [Plan] for the compile-to-plan executor; [Seed] pins the
          reference algorithms. With [Plan] and [domains > 1], large
          plan loop fragments fan out across the domain pool. A
          fast-path fault still degrades the failing request to one
          [Seed] re-run, whatever the configured mode. *)
  cache_capacity : int;  (** entries per artifact cache; 0 disables caching *)
  default_deadline : float option;  (** seconds; a per-request deadline wins *)
  fuel : int option;  (** evaluator step budget per generation attempt *)
  max_depth : int option;  (** user-function recursion depth budget *)
  max_nodes : int option;  (** constructed-node budget per attempt *)
  retries : int;  (** extra attempts for declared-transient failures *)
  backoff_s : float;
      (** base of the exponential backoff between retries; one sleep is
          [min (backoff_s * 2^attempt) backoff_cap_s], scaled by a
          deterministic decorrelated jitter in [0.5, 1] so bursts of
          failures don't retry in lockstep *)
  backoff_cap_s : float;  (** ceiling of a single backoff sleep, seconds *)
  quarantine_after : int;
      (** consecutive generation failures that open a template's circuit
          breaker; 0 disables quarantine *)
  quarantine_cooldown_s : float;
      (** how long an open breaker rejects the template before the next
          request closes it again *)
  result_cache_cap : int;
      (** completed generations kept for stale-while-revalidate serving
          (see {!lookup_result}); 0 disables the result cache *)
  fault : Fault.config option;  (** deterministic fault injection; [None] in production *)
}

val default_config : config
(** Domains 1, cache capacity 128, no deadline, unlimited budgets,
    2 retries with 1 ms base backoff capped at 250 ms, quarantine
    disabled, result cache disabled, no fault injection. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config

val run : t -> request -> response
(** Serve one request on the calling domain. *)

val run_batch : ?domains:int -> t -> request list -> response list
(** Serve a batch, fanned across domains (default [config.domains]) with
    work stealing. Responses come back in request order, and outputs are
    byte-identical to a serial run of the same batch. Every failure is
    confined to its own response. *)

val compile_query : t -> string -> (Xquery.Engine.compiled, string) result
(** Compile an XQuery program through the artifact cache: repeated
    compilations of the same source are served from memory. *)

val run_query :
  t ->
  ?compat:Xquery.Context.compat ->
  ?typed_mode:bool ->
  ?optimize:bool ->
  ?context_item:Xquery.Value.item ->
  ?vars:(string * Xquery.Value.sequence) list ->
  ?mode:Xquery.Engine.Exec_opts.mode ->
  ?doc_resolver:(string -> Xml_base.Node.t option) ->
  string ->
  (Xquery.Value.sequence, error) result
(** Run a bare XQuery query with the service's full machinery: the
    compiled-query cache (keyed by source hash {e and} the compile
    flags), the configured resource budgets and deadline wired into the
    evaluator, in-flight registration (so {!preempt_inflight} reaches
    it), per-query-hash quarantine, and one seed-evaluator re-run on an
    internal fault. [mode] overrides the configured execution mode for
    this call; [Plan] runs count against the [plan_*] counters.
    [doc_resolver] answers [doc()]/[fn:doc] calls (the server wires the
    persistent collection store in here). This is the shell's ([xqsh])
    path into the engine. *)

(** {1 XSLT stylesheets} *)

val compile_stylesheet : t -> string -> (Xslt.stylesheet, error) result
(** Compile a stylesheet through its own content-hash-keyed artifact
    cache. Parse and compilation failures come back as
    [Template_error]. *)

val apply_stylesheet :
  t -> stylesheet_xml:string -> Xml_base.Node.t -> (Xml_base.Node.t list, error) result
(** Compile (through the cache) and apply a stylesheet to a source tree.
    Quarantine applies per stylesheet content hash; the configured
    default deadline is enforced coarsely (checked after the transform —
    the XSLT engine has no mid-walk budget hook). This is [xsltproc]'s
    path into the transform engine. *)

(** {1 Drain hook}

    Every generation attempt registers its {!Xquery.Context.limits}
    record while it runs. A draining front end (the HTTP server on
    SIGTERM) uses {!preempt_inflight} to tighten all of their deadlines
    at once: each running evaluation then trips [resource:deadline] at
    its next amortized check and surfaces a structured
    {!error.Deadline_exceeded}, instead of being killed mid-mutation. *)

val preempt_inflight : t -> deadline_ns:int -> int
(** Tighten every in-flight evaluation's deadline to at most
    [deadline_ns] (absolute, {!Clock.now_ns} scale). Returns how many
    evaluations were tightened; already-tighter deadlines are left
    alone. The deadline is {e sticky}: attempts that register after this
    call — including ones already dequeued by a server worker when the
    drain began — are tightened at registration, so no evaluation can
    slip past a drain with an unbounded deadline. Repeated calls keep
    the tightest deadline given so far. *)

val inflight_count : t -> int
(** Generation attempts currently running (gauge). *)

val quarantine_remaining : t -> template_xml:string -> float option
(** [Some seconds] while [template_xml]'s circuit breaker is open — the
    remaining cooldown — or [None] when the template may run. A [Some]
    answer counts as a quarantine rejection, like the in-request check:
    the HTTP front end uses this to answer [429] at admission time
    without spending a queue slot or a worker on a known-bad template.
    Does not close an expired breaker (the next real request does). *)

(** {1 Stale-while-revalidate result cache}

    When [config.result_cache_cap > 0], every completed Full-level
    generation of an XML-sourced (template, model, engine, backend)
    combination is cached by content hash. A degraded front end can then
    answer a repeat request instantly from the cache — stale, but a real
    document — while a background refresh regenerates it. Skeleton
    results and pre-parsed [Template_node] requests are never cached. *)

val lookup_result : t -> request -> (output * float) option
(** The cached output for this request's (template, model, engine,
    backend) key, with its age in seconds — or [None] on a miss (or when
    the cache is disabled). Counts a result-cache hit or miss. *)

val claim_refresh : t -> request -> bool
(** First-claim-wins dedup for background refreshes: [true] means the
    caller should enqueue a low-priority regeneration for this request;
    [false] means a refresh was already claimed recently (or nothing is
    cached under the key). A successful regeneration through {!run}
    replaces the entry and resets the claim; claims also lapse on their
    own after a cooldown so a dead refresher cannot wedge the entry. *)

(** {1 Introspection} *)

type counters = {
  requests : int;
  succeeded : int;
  failed : int;
  deadline_failures : int;
  resource_failures : int;  (** non-deadline budget trips *)
  retries : int;  (** transient-failure retries performed *)
  fast_fallbacks : int;  (** fast-evaluator faults degraded to the seed evaluator *)
  quarantine_trips : int;  (** circuit breakers opened *)
  quarantine_rejections : int;  (** requests refused while a breaker was open *)
  quarantine_releases : int;  (** breakers closed again after cooldown *)
  batches : int;
  steals : int;  (** work-stealing steals across all batches *)
  template_hits : int;
  template_misses : int;
  model_hits : int;
  model_misses : int;
  query_hits : int;
  query_misses : int;
  stylesheet_hits : int;  (** compiled-stylesheet cache hits *)
  stylesheet_misses : int;
  result_hits : int;  (** stale-while-revalidate result cache hits *)
  result_misses : int;
  result_stores : int;  (** completed generations stored in the result cache *)
  plan_compiles : int;  (** physical plans lowered (plan-cache misses) *)
  plan_hits : int;  (** Plan-mode runs served by an already-lowered plan *)
  plan_execs : int;  (** plan-executor runs started *)
  plan_parallel_fragments : int;
      (** plan loop fragments fanned out across the domain pool *)
  evictions : int;  (** summed over the five caches *)
  opt_lets_eliminated : int;
      (** optimizer pass hits, accumulated when a query-cache miss
          compiles a program (cache hits re-use the optimized program and
          add nothing) *)
  opt_constants_folded : int;
  opt_count_rewrites : int;  (** [count(e) > 0] → exists/empty rewrites *)
  opt_paths_hoisted : int;  (** loop-invariant paths lifted out of FLWORs *)
  template_s : float;  (** accumulated per-phase wall time, seconds *)
  model_s : float;
  generate_s : float;
  serialize_s : float;
}

val counters : t -> counters
val reset_counters : t -> unit
val clear_caches : t -> unit

val reload : t -> unit
(** Zero-downtime reload: {!clear_caches} plus closing every quarantine
    circuit breaker, so the next request recompiles templates from their
    current sources with a clean failure history. The HTTP front end
    wires this to [SIGHUP]. *)

val pp_counters : Format.formatter -> counters -> unit

val counters_to_prometheus : counters -> string
(** Prometheus text exposition (format 0.0.4) of every counter: a
    [# HELP] line, a [# TYPE] line, and one sample per metric, named
    [lopsided_service_*]. Every emitted name passes through
    {!sanitize_metric_name}.
    Served by the HTTP server's [/metrics] (which appends its own
    [lopsided_server_*] family) and printed by [awbserve --metrics]. *)

val sanitize_metric_name : string -> string
(** Map every character outside [[a-zA-Z0-9_:]] to ['_'] — one hostile
    metric name must degrade to underscores, not corrupt the whole
    exposition for every scraper. *)
