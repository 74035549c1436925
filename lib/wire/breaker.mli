(** Per-node circuit breaker: Closed / Open / Half-open — the replica
    coordinator keeps one per backend.

    Trips on consecutive failures or on the timeout fraction over a
    recent-outcome window; after a cooldown admits exactly one
    half-open probe, and only a proven success closes the circuit (a
    probe failure re-opens it and the cooldown restarts). Clock-
    explicit and thread-safe; unit-testable without sleeping. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
      (** consecutive failures that trip Closed → Open *)
  timeout_rate_threshold : float;
      (** timeout fraction over a full window that trips Closed → Open *)
  window : int;  (** recent outcomes considered for the timeout rate *)
  cooldown_s : float;  (** Open dwell before a probe is admitted *)
}

val default_config : config
(** 5 consecutive failures, 50% timeouts over 20 outcomes, 1 s cooldown. *)

type t

val create : ?config:config -> unit -> t
val state : t -> state

val state_code : t -> int
(** 0 = Closed, 1 = Open, 2 = Half-open — the Prometheus gauge value. *)

val state_name : state -> string

val trips : t -> int
(** Times the circuit opened (from Closed or a failed probe). *)

val blocked : t -> now:float -> bool
(** Callers must skip the node: Open inside its cooldown, or the
    half-open probe slot is already taken. Read-only. *)

val try_probe : t -> now:float -> bool
(** Claim the right to send one request. [true] always when Closed;
    when Open past its cooldown, converts to Half-open and hands the
    caller the single probe slot; [false] while another probe is in
    flight or the cooldown still runs. *)

val record_success : t -> unit
(** A request (or the half-open probe) completed: reset the
    consecutive-failure count; close the circuit if it was Open or
    Half-open, clearing the outcome window. *)

val record_failure : t -> ?timeout:bool -> now:float -> unit -> unit
(** A request failed ([timeout] marks deadline-style failures for the
    rate threshold). Trips the circuit when a threshold is crossed;
    a Half-open probe failure re-opens immediately. *)

val force_open : t -> now:float -> unit
(** Open without counting failures — for a supervisor that knows the
    backend is dead (reaped its corpse). *)
