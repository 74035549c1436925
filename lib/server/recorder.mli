(** Request record/replay: a ring buffer of admitted requests on the
    server's admission path, serializable to a capture file that
    [awbserve replay] and the bench store harness drive back at any
    speed — plus the end-of-run invariant checker both use to assert
    conservation. *)

type entry = {
  e_ts : float;
      (** seconds, monotonic at capture; zero-based after {!load} *)
  e_meth : string;
  e_path : string;
  e_tenant : string;
  e_deadline_ms : int;  (** 0 = no client deadline *)
  e_body : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] (default 65536) most recent entries. *)

val entry :
  ?ts:float ->
  meth:string ->
  path:string ->
  tenant:string ->
  deadline_ms:int ->
  body:string ->
  unit ->
  entry
(** [ts] defaults to [Clock.now ()]. *)

val record : t -> entry -> unit
(** O(1), one mutex — safe on the admission path. When the ring is full
    the oldest entry is overwritten (counted in {!dropped}). With a
    sink attached, every [every]-th record additionally flushes the
    serialized backlog to the capture file. *)

val attach_sink : t -> path:string -> ?every:int -> unit -> unit
(** Mirror every subsequent record into [path] (truncated, magic
    written immediately), flushing each [every] (default 64) records —
    so at most [every - 1] acknowledged captures are lost to a crash,
    instead of the whole ring. Replaces (and finalizes) any previous
    sink. *)

val detach_sink : t -> int
(** Flush the backlog, close the file, return entries written. No-op
    ([0]) without a sink. *)

val length : t -> int
val dropped : t -> int

val entries : t -> entry list
(** Current contents in arrival order. *)

val save : t -> string -> int
(** Write the capture file; returns the number of entries written. *)

val load : string -> entry list
(** Parse a capture file; timestamps are re-based so the first entry is
    at 0. A torn tail (a sink writer crashed between flushes) is
    tolerated: the parsed prefix is returned. Raises
    [Frame.Protocol_error] only on a bad magic. *)

(** {1 End-of-run invariants} *)

type ledger = {
  sent : int;  (** requests put on the wire *)
  responses : int;  (** complete HTTP responses read back *)
  conn_errors : int;  (** connections that died before a response *)
  status_counts : (int * int) list;  (** status code → count *)
}

val scrape_counter : string -> string -> int
(** [scrape_counter exposition name] sums every sample of [name]
    (labeled series included) in a Prometheus text exposition. *)

val check_invariants : ledger:ledger -> metrics_text:string -> string list
(** Conservation over a replayed run: every request resolved exactly
    once (response or connection error); 200s never exceed what the
    server admitted plus stale cache hits; 429/503s never exceed the
    refusals it counted; the buffer pool's books balance after drain
    ([created = idle + dropped]). Returns violations (empty = clean). *)

val check_store_invariants :
  acked:(string * string) list ->
  recovered:(string * string) list ->
  escapes:int ->
  string list
(** Store conservation after drain + reopen: [recovered] must be
    exactly [acked] — every acknowledged [(doc, hash)] present with
    that hash (no lost acked write), nothing recovered that was never
    acknowledged (no resurrection), and [escapes] (read-time checksum
    failures served) must be zero. Returns violations. *)
