(** Payload codecs for the replication frame family — log shipping,
    undo, anti-entropy catch-up, and promotion — riding the [Frame]
    wire discipline over the replica UDS channels. One op byte, then
    op-specific fields; replies reuse the same framing, and a replica
    that must refuse (stale epoch, diverged position, store error)
    answers a structured [Frame.nack] so the stream never desyncs. *)

(** {1 Write (log shipping)} *)

type write = {
  w_epoch : int;  (** the coordinator's current term *)
  w_expect : (int * int) option;
      (** required pre-append [(seg, off)] — the log-matching check; [None]
          on the primary, which defines the position *)
  w_kind : [ `Put | `Delete ];
  w_collection : string;
  w_doc : string;
  w_body : string;  (** empty for [`Delete] *)
}

val encode_write : write -> string
val decode_write : string -> int ref -> write

type write_reply = {
  a_applied : bool;  (** false: a delete of an absent doc — nothing appended *)
  a_hash : string;
  a_pre : int * int;  (** position the record went in at *)
  a_post : int * int;
}

val encode_write_reply : write_reply -> string
val decode_write_reply : string -> write_reply

(** {1 Undo} *)

val encode_undo : epoch:int -> seg:int -> off:int -> string
(** Roll the log back to [(seg, off)] — the rollback of a write that
    missed its quorum, so nothing unacknowledged can be resurrected. *)

val decode_undo : string -> int ref -> int * int * int

(** {1 Status} *)

type seg_info = { g_id : int; g_len : int; g_digest : string  (** "" unless requested *) }

type status = {
  st_epoch : int;
  st_pos : int * int;  (** next-append position *)
  st_total : int;  (** durable log bytes *)
  st_segs : seg_info list;
  st_quarantined : int;
}

val encode_status_req : digests:bool -> string
val encode_status : status -> string
val decode_status : string -> status

(** {1 Promotion} *)

val encode_promote : epoch:int -> string
(** Adopt [epoch] and append the durable epoch marker — failover made
    a log record the deposed primary's tail can never match. There is
    deliberately no content-free "learn the term" frame: a replica
    only ever takes an epoch together with the bytes that back it (a
    log-matched write, the marker append, or a repair commit), so the
    (epoch, bytes) election rank cannot be inflated by gossip. *)

(** {1 Anti-entropy catch-up} *)

val encode_fetch : seg:int -> from:int -> upto:int -> string
(** Segment bytes [[from, upto)]; [upto = 0] means the durable end. *)

val decode_fetch : string -> int ref -> int * int * int
val encode_prefix_digest : seg:int -> upto:int -> string
val decode_prefix_digest : string -> int ref -> int * int
val encode_bytes : string -> string
val decode_bytes : string -> string

val encode_install : seg:int -> from:int -> string -> string
(** Stage a splice: replace segment [seg] from offset [from] with the
    carried bytes ([from = 0] replaces the whole file). Nothing is
    applied until commit. *)

val decode_install : string -> int ref -> int * int * string

val encode_commit : epoch:int -> int list -> string
(** Apply every staged splice, drop segments not in the list (and the
    manifest checkpoint), reopen, adopt [epoch]. *)

val decode_commit : string -> int ref -> int * int list

(** {1 Reads} *)

val encode_get : collection:string -> doc:string -> string
val decode_get : string -> int ref -> string * string
val encode_get_reply : (string * string) option -> string
val decode_get_reply : string -> (string * string) option
