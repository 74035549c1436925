(** Deterministic fault injection for the replica transport.

    A seeded, schedule-driven chaos plane in the spirit of the service
    layer's [Fault] injector: every verdict is a pure function of
    (seed, fault kind, node id, per-node frame sequence number), drawn
    with {!Draw.uniform}, so one seed replays one byte-identical fault
    schedule, run after run. The replica coordinator consults {!decide}
    per data-plane frame and enacts the verdict on the real socket —
    control frames and health probes are exempt. *)

type action =
  | Pass
  | Delay of float  (** seconds added before the frame is sent *)
  | Drop  (** the frame never leaves; the sender waits out its timeout *)
  | Truncate  (** half the frame is sent, then the connection dies *)
  | Corrupt  (** one payload byte flipped; the CRC trailer left stale *)
  | Duplicate  (** the frame is delivered twice *)
  | Stall of float  (** seconds the frame hangs before arriving *)

type config = {
  seed : int;
  delay_rate : float;
  delay_s : float;
  drop_rate : float;
  truncate_rate : float;
  corrupt_rate : float;
  duplicate_rate : float;
  stall_rate : float;
  stall_s : float;
}

val none : config
(** All rates zero: {!decide} always answers [Pass]. *)

val of_seed : int -> config
(** The standard mixed schedule: 10% small delays, 2% drops, 2%
    truncations, 5% corruption, 3% duplicates, 4% stalls of up to
    500 ms. *)

val enabled : config -> bool

val decide : config -> node:int -> seq:int -> action
(** The verdict for frame [seq] to [node] — pure and reproducible. *)

val corrupt_offset : config -> node:int -> seq:int -> len:int -> int
(** Which payload byte a [Corrupt] verdict flips. *)

val schedule : config -> node:int -> int -> action list
(** The fault plan for one node's first [n] frames: the
    reproducibility contract made inspectable. *)

val action_name : action -> string
