(* Per-node circuit breaker: Closed / Open / Half-open.

   The replica coordinator learns a node is bad reactively — a frame
   must fail before it knows. The breaker makes the lesson stick:
   enough consecutive failures (or a high enough timeout fraction over
   the recent window) open the circuit, and the coordinator then skips
   the node *before* spending a frame on it. After a cooldown the
   breaker admits exactly one probe (half-open); only a proven success
   closes it again — a probe failure re-opens and the cooldown
   restarts.

   Deliberately clock-explicit ([~now] everywhere) and free of any
   thread machinery beyond one mutex, so the state machine unit-tests
   without live backends and without sleeping. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (* consecutive failures that trip Closed -> Open *)
  timeout_rate_threshold : float;  (* timeout fraction over the window that trips *)
  window : int;  (* recent outcomes considered for the timeout rate *)
  cooldown_s : float;  (* Open dwell before a probe is admitted *)
}

let default_config =
  { failure_threshold = 5; timeout_rate_threshold = 0.5; window = 20; cooldown_s = 1. }

type t = {
  cfg : config;
  mutex : Mutex.t;
  mutable st : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe_inflight : bool;
  (* Ring of recent outcomes: true = the failure was a timeout. Sized
     [window]; [filled] counts valid entries until the ring wraps. *)
  outcomes : bool array;
  mutable next : int;
  mutable filled : int;
  mutable trips : int;  (* Closed/Half_open -> Open transitions, for the gauge story *)
}

let create ?(config = default_config) () =
  {
    cfg = { config with window = max 1 config.window };
    mutex = Mutex.create ();
    st = Closed;
    consecutive_failures = 0;
    opened_at = neg_infinity;
    probe_inflight = false;
    outcomes = Array.make (max 1 config.window) false;
    next = 0;
    filled = 0;
    trips = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push_outcome t ~timeout =
  t.outcomes.(t.next) <- timeout;
  t.next <- (t.next + 1) mod Array.length t.outcomes;
  if t.filled < Array.length t.outcomes then t.filled <- t.filled + 1

let timeout_rate t =
  if t.filled = 0 then 0.
  else begin
    let timeouts = ref 0 in
    for i = 0 to t.filled - 1 do
      if t.outcomes.(i) then incr timeouts
    done;
    float_of_int !timeouts /. float_of_int t.filled
  end

let trip t ~now =
  t.st <- Open;
  t.opened_at <- now;
  t.probe_inflight <- false;
  t.trips <- t.trips + 1

let state t = locked t (fun () -> t.st)
let trips t = locked t (fun () -> t.trips)

(* 0 / 1 / 2 for the Prometheus gauge. *)
let state_code t =
  locked t (fun () -> match t.st with Closed -> 0 | Open -> 1 | Half_open -> 2)

let state_name = function Closed -> "closed" | Open -> "open" | Half_open -> "half-open"

(* Callers must avoid the node: Open inside its cooldown, or a probe
   already holds the half-open slot. Open *past* its cooldown is not
   blocked — the node is eligible again, pending {!try_probe}. *)
let blocked t ~now =
  locked t (fun () ->
      match t.st with
      | Closed -> false
      | Open -> now -. t.opened_at < t.cfg.cooldown_s
      | Half_open -> t.probe_inflight)

(* Claim the right to send one request. Closed admits freely. Open past
   cooldown converts to Half_open and hands this caller the single
   probe slot; a second caller gets [false] until the probe resolves. *)
let try_probe t ~now =
  locked t (fun () ->
      match t.st with
      | Closed -> true
      | Open when now -. t.opened_at >= t.cfg.cooldown_s ->
        t.st <- Half_open;
        t.probe_inflight <- true;
        true
      | Open -> false
      | Half_open when not t.probe_inflight ->
        t.probe_inflight <- true;
        true
      | Half_open -> false)

let record_success t =
  locked t (fun () ->
      t.consecutive_failures <- 0;
      push_outcome t ~timeout:false;
      match t.st with
      | Half_open | Open ->
        (* The half-open probe (or a straggler that beat the trip)
           proved the node does real work: close and forget the
           window — old timeouts must not instantly re-trip. *)
        t.st <- Closed;
        t.probe_inflight <- false;
        t.filled <- 0;
        t.next <- 0
      | Closed -> ())

let record_failure t ?(timeout = false) ~now () =
  locked t (fun () ->
      t.consecutive_failures <- t.consecutive_failures + 1;
      push_outcome t ~timeout;
      match t.st with
      | Half_open -> trip t ~now (* the probe failed: re-open, cooldown restarts *)
      | Closed ->
        if
          t.consecutive_failures >= t.cfg.failure_threshold
          || (t.filled >= Array.length t.outcomes
             && timeout_rate t >= t.cfg.timeout_rate_threshold)
        then trip t ~now
      | Open -> ())

(* Force-open without waiting for failures — the supervisor uses this
   when it *knows* the backend died (reaped the corpse), so routing
   stops immediately and recovery goes through the probe discipline. *)
let force_open t ~now = locked t (fun () -> trip t ~now)
