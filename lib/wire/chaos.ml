(* Deterministic chaos for the replica transport.

   Failover is untestable if the network faults themselves are flaky,
   so — exactly like the service layer's [Fault] injector — every
   decision here is a pure function of (seed, fault kind, node, frame
   sequence number), drawn with [Draw.uniform]: the same seeded config
   replays the same fault schedule in the same places, run after run.

   No proxy process: the replica coordinator consults [decide] once per
   data-plane frame and enacts the verdict itself on the real socket —
   a delayed frame really arrives late, a truncated frame really leaves
   the backend holding a half-read, a corrupted frame really fails the
   CRC on the far side. Control frames and health probes are exempt so
   the supervisor's view of the world stays truthful; the data plane is
   where the defenses under test (CRC + nack, breakers, failover) live.

   Note on sequence numbers: the per-node frame counter makes the
   *schedule* (seq -> action) byte-identical across runs for one seed.
   Which request draws which sequence number still depends on thread
   interleaving — determinism of the fault plan, not of the race. *)

type action =
  | Pass
  | Delay of float  (* seconds added before the frame is sent *)
  | Drop  (* the frame never leaves; the sender waits out its timeout *)
  | Truncate  (* half the frame is sent, then the connection dies *)
  | Corrupt  (* one payload byte flipped; the CRC trailer is left stale *)
  | Duplicate  (* the frame is delivered twice *)
  | Stall of float  (* seconds the frame hangs mid-flight before arriving *)

type config = {
  seed : int;
  delay_rate : float;
  delay_s : float;  (* max added latency; the actual delay is jittered *)
  drop_rate : float;
  truncate_rate : float;
  corrupt_rate : float;
  duplicate_rate : float;
  stall_rate : float;
  stall_s : float;
}

let none =
  {
    seed = 0;
    delay_rate = 0.;
    delay_s = 0.005;
    drop_rate = 0.;
    truncate_rate = 0.;
    corrupt_rate = 0.;
    duplicate_rate = 0.;
    stall_rate = 0.;
    stall_s = 0.5;
  }

(* The standard mixed schedule: every fault kind live at a rate
   failover should absorb, stalls shorter than the call timeout. *)
let of_seed seed =
  {
    seed;
    delay_rate = 0.10;
    delay_s = 0.005;
    drop_rate = 0.02;
    truncate_rate = 0.02;
    corrupt_rate = 0.05;
    duplicate_rate = 0.03;
    stall_rate = 0.04;
    stall_s = 0.5;
  }

let enabled c =
  c.delay_rate > 0. || c.drop_rate > 0. || c.truncate_rate > 0.
  || c.corrupt_rate > 0. || c.duplicate_rate > 0. || c.stall_rate > 0.

let uniform c ~tag ~node ~seq =
  Draw.uniform ~seed:c.seed ~tag ~key:(string_of_int node) ~seq

let fires c rate ~tag ~node ~seq =
  if rate <= 0. then false
  else rate >= 1. || uniform c ~tag ~node ~seq < rate

(* Fixed evaluation order so one frame draws at most one fault; the
   destructive kinds get first claim. *)
let decide c ~node ~seq =
  if not (enabled c) then Pass
  else if fires c c.drop_rate ~tag:"drop" ~node ~seq then Drop
  else if fires c c.truncate_rate ~tag:"truncate" ~node ~seq then Truncate
  else if fires c c.corrupt_rate ~tag:"corrupt" ~node ~seq then Corrupt
  else if fires c c.stall_rate ~tag:"stall" ~node ~seq then
    Stall (c.stall_s *. (0.5 +. (0.5 *. uniform c ~tag:"stall-jitter" ~node ~seq)))
  else if fires c c.duplicate_rate ~tag:"duplicate" ~node ~seq then Duplicate
  else if fires c c.delay_rate ~tag:"delay" ~node ~seq then
    Delay (c.delay_s *. uniform c ~tag:"delay-jitter" ~node ~seq)
  else Pass

(* Which payload byte a Corrupt verdict flips, as an offset into the
   payload — deterministic per (node, seq) like everything else. *)
let corrupt_offset c ~node ~seq ~len =
  if len <= 0 then 0
  else
    int_of_float (uniform c ~tag:"corrupt-at" ~node ~seq *. float_of_int len)
    mod len

(* The full fault plan for one node's first [n] frames — the
   reproducibility contract made inspectable (and testable: same seed,
   same list, byte for byte). *)
let schedule c ~node n = List.init n (fun seq -> decide c ~node ~seq)

let action_name = function
  | Pass -> "pass"
  | Delay _ -> "delay"
  | Drop -> "drop"
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Stall _ -> "stall"
