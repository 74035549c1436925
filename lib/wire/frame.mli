(** Length-prefixed binary framing with a CRC32 integrity trailer —
    the replica transport's wire layer, shared with the chaos plane
    and the workload recorder so all three use one codec.

    Version 2 frame: [u32 length, u8 version, payload, u32 crc32] where
    [length] counts version byte + payload + trailer. Corruption of the
    payload is {e detected} (raises {!Crc_mismatch}) rather than parsed;
    the frame boundary survives, so a receiver can answer a structured
    {!nack} on the same connection instead of desyncing. *)

(** {1 Payload codec} *)

exception Protocol_error of string

val perr : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Protocol_error} with a formatted message. *)

val add_u8 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit

val add_lp : Buffer.t -> string -> unit
(** Length-prefixed string: [u32 length] + bytes. *)

val get_u8 : string -> int ref -> int
val get_u32 : string -> int ref -> int
val get_lp : string -> int ref -> string

val crc32 : string -> int
(** IEEE 802.3 CRC32 of the whole string, as a non-negative int. *)

(** {1 Socket IO} *)

exception Crc_mismatch
(** A received frame's trailer does not match its payload: the bytes
    were damaged in flight. The stream is still framed (the length
    header was read before the damage was detected). *)

exception Nacked of string
(** Raised by callers that treat a {!nack} reply as a failure; never
    raised inside this module. *)

val version : int
val max_frame_bytes : int

val payload_offset : int
(** Byte offset of the payload inside {!encode}'s result. *)

val send_all : Unix.file_descr -> string -> unit
(** Write the whole string; raises {!Protocol_error} on a short write. *)

val encode : string -> string
(** The complete wire frame (header + version + payload + trailer) as
    one string — for layers (chaos) that must hold the raw bytes. *)

val send_frame : Unix.file_descr -> string -> unit
(** Frame and send one payload. *)

val recv_exact : ?retry_again:(unit -> bool) -> Unix.file_descr -> int -> string
(** Read exactly [n] bytes. [End_of_file] on EOF; EAGAIN from the
    socket receive timeout propagates unless [retry_again ()] says to
    keep waiting (the backend's drain poll). *)

val recv_frame : ?retry_again:(unit -> bool) -> Unix.file_descr -> string
(** Receive one frame and return its payload. Raises {!Protocol_error}
    on a bad length or version, {!Crc_mismatch} on a bad trailer. *)

(** {1 Structured nack} *)

val nack : string -> string
(** Payload answering a damaged frame: ['N'] + length-prefixed reason. *)

val nack_reason : string -> string option
(** [Some reason] when the payload is a nack. *)
