(** The one seeded draw behind every fault plane.

    [Service.Fault] (request faults), {!Chaos} (replica frame faults)
    and [Io_fault] (disk faults) all decide by the same construction:
    MD5 of ["seed|tag|key|seq"], its first 28 bits read as a uniform
    number in [[0, 1)]. A verdict is therefore a pure function of its
    inputs, and one seed replays one byte-identical schedule. *)

val uniform : seed:int -> tag:string -> key:string -> seq:int -> float
(** The draw for (seed, tag, key, seq), in [[0, 1)]. [tag] names the
    decision (a fault kind, a jitter), [key] the stream it belongs to
    (a request id, a node number, a file operation), [seq] the position
    in that stream. *)
